package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Kind enumerates the record types of the dmfbd session log.
type Kind uint8

const (
	// KindSessionOpen records the creation of a named session and the full
	// engine specification needed to rebuild it after a restart.
	KindSessionOpen Kind = 1
	// KindBatchAccept records a session batch the server has started
	// planning. An accept without a matching done/fail is an in-flight
	// batch torn by a crash: recovery re-plans (resumes) it.
	KindBatchAccept Kind = 2
	// KindBatchDone records a session batch whose plan was completed and
	// acknowledged to the client. Recovery re-plans it deterministically to
	// reconstruct the session timeline.
	KindBatchDone Kind = 3
	// KindBatchFail records a session batch that failed with a typed error;
	// recovery skips it (the client already saw the failure).
	KindBatchFail Kind = 4
	// KindSessionEvict records an LRU eviction, so recovery does not
	// resurrect sessions the pool had already let go.
	KindSessionEvict Kind = 5
	// KindPlanKey records a distinct stateless plan specification, used to
	// re-warm the plan cache after a restart.
	KindPlanKey Kind = 6
)

func (k Kind) String() string {
	switch k {
	case KindSessionOpen:
		return "session-open"
	case KindBatchAccept:
		return "batch-accept"
	case KindBatchDone:
		return "batch-done"
	case KindBatchFail:
		return "batch-fail"
	case KindSessionEvict:
		return "session-evict"
	case KindPlanKey:
		return "plan-key"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

func (k Kind) valid() bool { return k >= KindSessionOpen && k <= KindPlanKey }

// Spec is the engine configuration carried by session-open and plan-key
// records — exactly the fields a server needs to rebuild the engine (or
// re-plan the cache key) deterministically after a restart. The error
// policy fields are set only on error-aware specs, so error-blind records
// encode as they always have.
type Spec struct {
	Ratio     string `json:"ratio"`
	Algorithm string `json:"algorithm,omitempty"`
	Scheduler string `json:"scheduler,omitempty"`
	Mixers    int    `json:"mixers,omitempty"`
	Storage   int    `json:"storage,omitempty"`

	ErrorAware     bool    `json:"error_aware,omitempty"`
	SplitImbalance float64 `json:"split_imbalance,omitempty"`
	DispenseError  float64 `json:"dispense_error,omitempty"`
	CycleSlack     float64 `json:"cycle_slack,omitempty"`
}

// Record is one entry of the session log. Seq is assigned by Append and
// must be contiguous from 1 on replay — a gap, repeat or regression is
// corruption (it catches duplicated and reordered records).
type Record struct {
	Seq  uint64 `json:"seq"`
	Kind Kind   `json:"kind"`
	// Session names the session the record belongs to (empty for plan-key
	// records).
	Session string `json:"session,omitempty"`
	// Fingerprint pins the session's engine configuration (session-open).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Spec carries the engine configuration (session-open, plan-key).
	Spec *Spec `json:"spec,omitempty"`
	// Batch is the 1-based ordinal of the batch within its session.
	Batch int `json:"batch,omitempty"`
	// Demand is the droplet demand of the batch (accept/done) or the
	// stateless plan (plan-key).
	Demand int `json:"demand,omitempty"`
	// StartCycle/Emitted summarize a completed batch (done).
	StartCycle int `json:"start_cycle,omitempty"`
	Emitted    int `json:"emitted,omitempty"`
	// Error carries the typed failure of a batch-fail record.
	Error string `json:"error,omitempty"`
}

// ErrCorrupt is the typed corruption error: every structurally invalid log
// (bad magic, impossible frame length, checksum mismatch, undecodable
// payload, non-contiguous sequence numbers, truncated record) yields an
// error wrapping it — never a panic, and never a silently dropped record.
var ErrCorrupt = errors.New("wal: corrupt log")

// CorruptError pinpoints a corruption: the byte offset of the offending
// frame and how far the log replayed cleanly. Records before Offset are
// intact; Open truncates the log there and resumes appending.
type CorruptError struct {
	// Offset is the file offset of the frame that failed to validate.
	Offset int64
	// Reason describes the failure.
	Reason string
	// Records is the number of records replayed cleanly before it.
	Records int
	// Intact marks a frame whose checksum holds but whose record names a
	// field this version does not know: a record of a format it cannot
	// read, not a torn write. Open refuses such a log instead of
	// truncating it there.
	Intact bool
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt log at offset %d after %d records: %s", e.Offset, e.Records, e.Reason)
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// validate checks the structural invariants of a decoded record against the
// previous sequence number.
func (r *Record) validate(prevSeq uint64) error {
	if r.Seq != prevSeq+1 {
		return fmt.Errorf("sequence %d after %d (duplicated, dropped or reordered record)", r.Seq, prevSeq)
	}
	if !r.Kind.valid() {
		return fmt.Errorf("unknown record kind %d", uint8(r.Kind))
	}
	switch r.Kind {
	case KindSessionOpen:
		if r.Session == "" || r.Spec == nil {
			return fmt.Errorf("session-open without session or spec")
		}
	case KindBatchAccept, KindBatchDone, KindBatchFail:
		if r.Session == "" || r.Batch <= 0 {
			return fmt.Errorf("%s without session or batch ordinal", r.Kind)
		}
	case KindSessionEvict:
		if r.Session == "" {
			return fmt.Errorf("session-evict without session")
		}
	case KindPlanKey:
		if r.Spec == nil {
			return fmt.Errorf("plan-key without spec")
		}
	}
	return nil
}

func encodePayload(r *Record) ([]byte, error) { return json.Marshal(r) }

// errUnknownField reports a well-formed record payload naming a field that
// Record (or its Spec) does not have.
var errUnknownField = errors.New("unknown field")

// decodePayload decodes one record payload. A field the record does not
// have is refused, never silently dropped: the error then wraps
// errUnknownField.
func decodePayload(b []byte, r *Record) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	err := dec.Decode(r)
	if err == nil {
		if _, err := dec.Token(); err != io.EOF {
			return errors.New("data after the record")
		}
		return nil
	}
	if json.Unmarshal(b, new(Record)) == nil {
		return fmt.Errorf("%w: %v", errUnknownField, err)
	}
	return err
}
