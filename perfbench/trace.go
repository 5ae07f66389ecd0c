package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Request identity travels from the client to the handler wrapper in these
// headers; the server itself ignores them.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// maxSpans bounds the in-memory span buffer of one run.
const maxSpans = 1 << 21

// span is one timed interval. Start and End are nanoseconds since the
// tracer's epoch; Parent is 0 for a root span; Req identifies the generated
// request (its index + 1) and is 0 for peer traffic, which carries no
// request identity across nodes.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory while on; they are written out as JSONL
// when the run ends.
type tracer struct {
	on      atomic.Bool
	epoch   time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// timed runs fn as a child span of parent.
func (t *tracer) timed(name string, parent, req uint64, fn func()) {
	s := span{Name: name, ID: t.newID(), Parent: parent, Req: req, Start: t.now()}
	fn()
	s.End = t.now()
	t.record(s)
}

// handler wraps a server's root handler: a request carrying the client's
// identity becomes a "server.handler" child of the client's root span;
// node-to-node calls become "server.peer_handler" roots.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		s := span{Name: "server.peer_handler", ID: t.newID(), Start: t.now()}
		if req, err := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64); err == nil {
			s.Name, s.Req = "server.handler", req
			s.Parent, _ = strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		}
		h.ServeHTTP(w, r)
		s.End = t.now()
		t.record(s)
	})
}

// peerCall names a node-to-node call by its endpoint.
func peerCall(r *http.Request) string {
	switch {
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/artifact/"):
		return "cluster.fetch"
	case r.Method == http.MethodPut:
		return "cluster.push"
	case r.URL.Path == "/v1/artifact/build":
		return "cluster.build_on"
	default:
		return "cluster.other"
	}
}

type timingTransport struct {
	t    *tracer
	next http.RoundTripper
}

// transport wraps the node-to-node transport: each peer call becomes a
// root span named after its endpoint, timed until the response headers.
func (t *tracer) transport(next http.RoundTripper) http.RoundTripper {
	return &timingTransport{t: t, next: next}
}

func (tt *timingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !tt.t.on.Load() {
		return tt.next.RoundTrip(r)
	}
	s := span{Name: peerCall(r), ID: tt.t.newID(), Start: tt.t.now()}
	resp, err := tt.next.RoundTrip(r)
	s.End = tt.t.now()
	tt.t.record(s)
	return resp, err
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(&s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close trace: %w", err)
	}
	return nil
}
