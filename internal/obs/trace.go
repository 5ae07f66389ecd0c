package obs

import (
	"encoding/json"
	"time"
)

// Event is one structured trace record. Serialised as a single JSON line:
//
//	{"seq":12,"ms":3.41,"event":"stream.plan","fields":{"demand":20,...}}
//
// Seq is a per-session monotone sequence number; Ms is milliseconds since
// Enable. Fields carry the event payload.
type Event struct {
	Seq    int64          `json:"seq"`
	Ms     float64        `json:"ms"`
	Event  string         `json:"event"`
	Fields map[string]any `json:"fields,omitempty"`
}

// Emit writes one structured trace event. Disabled, or enabled without a
// trace writer: a no-op. Callers building non-trivial field maps should
// guard with Tracing() to skip the map allocation when nothing writes it.
func Emit(event string, fields map[string]any) {
	r := active.Load()
	if r == nil || r.trace == nil {
		return
	}
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	r.seq++
	e := Event{
		Seq:    r.seq,
		Ms:     float64(time.Since(r.start).Microseconds()) / 1e3,
		Event:  event,
		Fields: fields,
	}
	b, err := json.Marshal(e)
	if err != nil {
		// Unserialisable field values must not take down the engine; emit
		// a marker event instead.
		b, _ = json.Marshal(Event{Seq: r.seq, Event: event + ".marshal-error"})
	}
	r.trace.Write(append(b, '\n'))
}
