package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Durability: the server journals session lifecycle to a write-ahead log
// (internal/wal) so a crash — SIGKILL included — loses no accepted work.
//
// The protocol, per session:
//
//	session-open  (async)  — appended under the pool shard lock at insert,
//	                         so it precedes every batch record of the session;
//	batch-accept  (fsync)  — durable before planning starts;
//	batch-done    (fsync)  — durable before the client sees the response;
//	batch-fail    (fsync)  — a typed planning failure, so recovery knows the
//	                         ordinal was consumed without a timeline effect;
//	session-evict (async)  — advisory, stops recovery resurrecting LRU drops;
//	plan-key      (async)  — distinct stateless plans, to re-warm the plan
//	                         cache after a restart (the newest ones, as many
//	                         as the cache holds).
//
// Recovery leans on the determinism of the planning stack: replaying a
// session's batch demands against a fresh engine rebuilds the exact
// timeline the clients saw (batch-done records carry start-cycle/emitted so
// the replay is *verified*, not assumed). A batch-accept without a matching
// done/fail is an in-flight batch torn by the crash: recovery finishes it —
// the paper's demand-driven contract survives the restart — or fails it with
// a typed error surfaced at /v1/recovery. Nothing is dropped silently.

// errRecovering refuses requests while WAL replay runs. Mapped to 503.
var errRecovering = errors.New("server: recovering session log")

// FailedSession is one session recovery could not resume, with its typed
// error. Surfaced by /v1/recovery so operators (and the chaos harness) can
// verify no accepted session vanished silently.
type FailedSession struct {
	Session string `json:"session"`
	Error   string `json:"error"`
}

// RecoveryReport summarizes one boot-time WAL replay.
type RecoveryReport struct {
	WAL     bool `json:"wal"`
	Records int  `json:"records"`
	// Corrupt* pinpoint a torn/corrupt tail the log was repaired from.
	CorruptOffset int64  `json:"corrupt_offset,omitempty"`
	CorruptReason string `json:"corrupt_reason,omitempty"`
	// Sessions is the number of live sessions restored into the pool.
	Sessions int `json:"sessions"`
	// ReplayedBatches counts completed batches re-planned (and verified
	// against their logged start-cycle/emitted) during recovery.
	ReplayedBatches int `json:"replayed_batches"`
	// ResumedBatches counts accepted-but-unfinished batches the recovery
	// completed on behalf of the crashed process.
	ResumedBatches int `json:"resumed_batches"`
	// Failed lists sessions that could not be resumed, each with its typed
	// error.
	Failed []FailedSession `json:"failed,omitempty"`
	// Evicted counts sessions the log recorded as evicted (not restored).
	Evicted int `json:"evicted"`
	// PlanKeysWarmed counts distinct stateless plans re-planned into the
	// plan cache.
	PlanKeysWarmed int `json:"plan_keys_warmed"`
	// CompactedRecords is the record count of the rewritten log.
	CompactedRecords int     `json:"compacted_records"`
	DurationMS       float64 `json:"duration_ms"`
}

// specToWAL converts a validated plan spec to its WAL form. An error-aware
// spec leaves Algorithm unset (the selection picks the base graph) and
// carries its policy; an error-blind spec encodes as it always has.
func specToWAL(spec *planSpec) *wal.Spec {
	ws := &wal.Spec{
		Ratio:     spec.target.String(),
		Algorithm: spec.algorithm.String(),
		Scheduler: spec.scheduler.String(),
		Mixers:    spec.mixers,
		Storage:   spec.storage,
	}
	if p := spec.errPolicy; p != nil {
		ws.Algorithm = ""
		ws.ErrorAware = true
		ws.SplitImbalance = p.Params.SplitImbalance
		ws.DispenseError = p.Params.DispenseError
		ws.CycleSlack = p.CycleSlack
	}
	return ws
}

// specFromWAL validates a WAL spec back into a plan spec.
func specFromWAL(ws *wal.Spec, demand int) (*planSpec, error) {
	if ws == nil {
		return nil, fmt.Errorf("wal record without spec")
	}
	return parsePlanRequest(&PlanRequest{
		Ratio:          ws.Ratio,
		Algorithm:      ws.Algorithm,
		Scheduler:      ws.Scheduler,
		Mixers:         ws.Mixers,
		Storage:        ws.Storage,
		Demand:         demand,
		ErrorAware:     ws.ErrorAware,
		SplitImbalance: ws.SplitImbalance,
		DispenseError:  ws.DispenseError,
		CycleSlack:     ws.CycleSlack,
	})
}

// sessionRecords is the compacted form of a session: its session-open
// record, then one batch-done per completed batch. Boot compaction, the
// migration snapshot and the adopt journal all write it; a new session's
// open record is its first element.
func sessionRecords(name string, spec *planSpec, history []batchSummary) []wal.Record {
	recs := make([]wal.Record, 0, len(history)+1)
	recs = append(recs, wal.Record{
		Kind: wal.KindSessionOpen, Session: name, Fingerprint: spec.fingerprint(), Spec: specToWAL(spec),
	})
	for i, h := range history {
		recs = append(recs, wal.Record{
			Kind: wal.KindBatchDone, Session: name, Batch: i + 1,
			Demand: h.demand, StartCycle: h.startCycle, Emitted: h.emitted,
		})
	}
	return recs
}

// requestBatch plans one batch on the session's engine. Session batches run
// under the session's request mutex: the fence is checked (a migrating
// session answers 409, never a write behind its shipped snapshot) and the
// batch history is maintained for migration snapshots. With a WAL attached
// the plan is additionally bracketed accept → plan → done/fail: the accept
// is durable before planning starts and the done is durable before the
// caller can acknowledge the client, so a crash at any point leaves a log
// recovery can act on.
func (s *Server) requestBatch(ctx context.Context, eng *core.Engine, sess *session, demand int) (*core.Batch, error) {
	if sess == nil {
		return eng.RequestCtx(ctx, demand)
	}
	sess.reqMu.Lock()
	defer sess.reqMu.Unlock()
	if sess.fenced {
		return nil, fmt.Errorf("%w: session %q", errSessionFenced, sess.name)
	}
	ord := sess.batches + 1
	if err := s.journal(wal.Record{
		Kind: wal.KindBatchAccept, Session: sess.name, Batch: ord, Demand: demand,
	}); err != nil {
		return nil, fmt.Errorf("server: wal accept: %w", err)
	}
	sess.batches = ord
	b, err := eng.RequestCtx(ctx, demand)
	if err != nil {
		// The failed plan had no timeline effect (RequestCtx is atomic on
		// error); journal the typed failure so recovery skips the ordinal
		// instead of re-planning it.
		if werr := s.journal(wal.Record{
			Kind: wal.KindBatchFail, Session: sess.name, Batch: ord, Demand: demand, Error: err.Error(),
		}); werr != nil {
			return nil, fmt.Errorf("server: wal fail-record: %w (plan error: %w)", werr, err)
		}
		return nil, err
	}
	if err := s.journal(wal.Record{
		Kind: wal.KindBatchDone, Session: sess.name, Batch: ord, Demand: demand,
		StartCycle: b.StartCycle, Emitted: b.Result.Emitted,
	}); err != nil {
		return nil, fmt.Errorf("server: wal done: %w", err)
	}
	sess.history = append(sess.history, batchSummary{
		demand: demand, startCycle: b.StartCycle, emitted: b.Result.Emitted,
	})
	return b, nil
}

// journal appends rec to the WAL and waits for it to be durable; without a
// WAL it does nothing.
func (s *Server) journal(rec wal.Record) error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Append(rec)
}

// notePlanKey journals the first occurrence of a distinct stateless plan so
// a restart can re-warm the plan cache.
func (s *Server) notePlanKey(spec *planSpec) {
	if s.wal == nil || !s.markPlanKey(spec) {
		return
	}
	s.wal.AppendAsync(wal.Record{Kind: wal.KindPlanKey, Spec: specToWAL(spec), Demand: spec.demand})
}

// markPlanKey records a stateless plan as journaled and reports whether it
// was new. Only the plan cache's capacity of keys is kept, first in first
// out: a key that falls out is journaled afresh when it is next requested,
// so the log's newest plan-key records are always the ones worth warming.
func (s *Server) markPlanKey(spec *planSpec) bool {
	key := planKeyOf(spec)
	s.planKeysMu.Lock()
	defer s.planKeysMu.Unlock()
	if s.planKeys[key] {
		return false
	}
	if len(s.planKeyOrder) >= s.planCache.Stats().Capacity {
		delete(s.planKeys, s.planKeyOrder[0])
		s.planKeyOrder = s.planKeyOrder[1:]
	}
	s.planKeys[key] = true
	s.planKeyOrder = append(s.planKeyOrder, key)
	return true
}

// recentPlanKeys decodes the newest distinct specs among the plan-key
// records, at most limit of them, oldest first: warming them in that order
// leaves the newest plan most recently used.
func recentPlanKeys(recs []*wal.Record, limit int) []*planSpec {
	var specs []*planSpec
	seen := map[specKey]bool{}
	for i := len(recs) - 1; i >= 0 && len(specs) < limit; i-- {
		spec, err := specFromWAL(recs[i].Spec, recs[i].Demand)
		if err != nil {
			continue
		}
		if k := planKeyOf(spec); !seen[k] {
			seen[k] = true
			specs = append(specs, spec)
		}
	}
	slices.Reverse(specs)
	return specs
}

// recBatch is one batch of a session under recovery.
type recBatch struct {
	ord, demand, startCycle, emitted int
	state                            int // 0 = in-flight (torn), 1 = done, 2 = failed
}

// recSession accumulates one session's log records.
type recSession struct {
	name    string
	fp      string // as logged; the canonical one is spec.fingerprint()
	spec    *planSpec
	batches []recBatch
	evicted bool
	broken  string // non-empty: the log itself is inconsistent for this session
}

const (
	recInflight = 0
	recDone     = 1
	recFailed   = 2
)

// newRecSession starts a session's fold at its first record, which must be
// a session-open carrying a valid spec; anything else is broken from the
// start (a typed failure rather than an invented spec).
func newRecSession(rec *wal.Record) *recSession {
	rs := &recSession{name: rec.Session, fp: rec.Fingerprint}
	if rec.Kind != wal.KindSessionOpen {
		rs.broken = fmt.Sprintf("%s before session-open", rec.Kind)
		return rs
	}
	spec, err := specFromWAL(rec.Spec, 1)
	if err != nil {
		rs.broken = "bad session spec: " + err.Error()
		return rs
	}
	rs.spec = spec
	return rs
}

// apply folds one record into the session state, recording the first
// inconsistency as broken (a broken session is typed-failed, never guessed
// at).
func (rs *recSession) apply(rec *wal.Record) {
	if rs.broken != "" {
		return
	}
	switch rec.Kind {
	case wal.KindSessionOpen:
		if rs.evicted || rs.fp != rec.Fingerprint {
			// Re-opened after an eviction (or with a new config after one):
			// a fresh timeline.
			*rs = *newRecSession(rec)
		}
	case wal.KindBatchAccept:
		if rec.Batch != len(rs.batches)+1 {
			rs.broken = fmt.Sprintf("batch-accept ordinal %d after %d batches", rec.Batch, len(rs.batches))
			return
		}
		rs.batches = append(rs.batches, recBatch{ord: rec.Batch, demand: rec.Demand})
	case wal.KindBatchDone, wal.KindBatchFail:
		state := recDone
		if rec.Kind == wal.KindBatchFail {
			state = recFailed
		}
		// Normal form: the done/fail closes the last accepted batch.
		// Compacted form: done records appear without accepts.
		switch {
		case len(rs.batches) > 0 && rs.batches[len(rs.batches)-1].ord == rec.Batch &&
			rs.batches[len(rs.batches)-1].state == recInflight:
			b := &rs.batches[len(rs.batches)-1]
			b.state, b.startCycle, b.emitted = state, rec.StartCycle, rec.Emitted
		case rec.Batch == len(rs.batches)+1:
			rs.batches = append(rs.batches, recBatch{
				ord: rec.Batch, demand: rec.Demand, state: state,
				startCycle: rec.StartCycle, emitted: rec.Emitted,
			})
		default:
			rs.broken = fmt.Sprintf("%s for unexpected batch ordinal %d", rec.Kind, rec.Batch)
		}
	case wal.KindSessionEvict:
		rs.evicted = true
	}
}

// walFold is a record list folded into per-session state, in order of each
// session's first record, plus the plan-key records in log order. Boot
// recovery folds the whole log; adopt folds one session's snapshot.
type walFold struct {
	sessions []*recSession
	planKeys []*wal.Record
}

// foldRecords folds records (which must outlive the fold) into walFold.
func foldRecords(recs []wal.Record) walFold {
	var f walFold
	byName := map[string]*recSession{}
	for i := range recs {
		rec := &recs[i]
		if rec.Kind == wal.KindPlanKey {
			f.planKeys = append(f.planKeys, rec)
			continue
		}
		if rs, ok := byName[rec.Session]; ok {
			rs.apply(rec)
			continue
		}
		rs := newRecSession(rec)
		byName[rec.Session] = rs
		f.sessions = append(f.sessions, rs)
	}
	return f
}

// Recover replays the WAL into the session pool: every live session is
// rebuilt by re-planning its logged batch demands (the planner is
// deterministic, so the timeline is bit-identical — and verified against the
// logged start-cycle/emitted), torn in-flight batches are completed or
// typed-failed, distinct stateless plans re-warm the plan cache, and the log
// is compacted to the surviving state. Until Recover returns, every /v1
// request is refused with 503 "recovering".
//
// A server constructed with a WAL must call Recover (with the ReplayInfo
// from wal.Open) before serving traffic.
func (s *Server) Recover(ctx context.Context, info *wal.ReplayInfo) (*RecoveryReport, error) {
	if s.wal == nil {
		return nil, fmt.Errorf("server: Recover called without a WAL")
	}
	defer s.recovering.Store(false)
	t0 := time.Now()
	done := obs.StartTimer("server.recovery_ms")
	defer done()

	rep := &RecoveryReport{WAL: true, Records: len(info.Records)}
	if info.Corrupt != nil {
		rep.CorruptOffset = info.Corrupt.Offset
		rep.CorruptReason = info.Corrupt.Reason
		obs.Inc("server.recovery.corrupt_tails")
	}

	// Replay live sessions in log order.
	f := foldRecords(info.Records)
	for _, rs := range f.sessions {
		if rs.evicted {
			rep.Evicted++
			continue
		}
		if rs.broken != "" {
			rep.Failed = append(rep.Failed, FailedSession{Session: rs.name, Error: "wal: " + rs.broken})
			obs.Inc("server.recovery.sessions_failed")
			continue
		}
		_, resumed, replayed, err := s.replaySession(ctx, rs)
		rep.ReplayedBatches += replayed
		rep.ResumedBatches += resumed
		if err != nil {
			rep.Failed = append(rep.Failed, FailedSession{Session: rs.name, Error: err.Error()})
			obs.Inc("server.recovery.sessions_failed")
			continue
		}
		rep.Sessions++
	}

	// Re-warm the plan cache from the most recent distinct stateless plan
	// keys, as many as the cache holds; older ones would only be evicted by
	// the newer ones.
	keys := recentPlanKeys(f.planKeys, s.planCache.Stats().Capacity)
	for _, spec := range keys {
		s.markPlanKey(spec)
		if err := s.warmPlanKey(ctx, spec); err == nil {
			rep.PlanKeysWarmed++
		}
	}

	// Compact: rewrite the log to exactly the surviving pool state (plus
	// those plan keys), so boot cost stays proportional to live state, not
	// uptime.
	var recs []wal.Record
	for _, sess := range s.pool.snapshot() {
		recs = append(recs, sessionRecords(sess.name, sess.spec, sess.history)...)
	}
	for _, spec := range keys {
		recs = append(recs, wal.Record{Kind: wal.KindPlanKey, Spec: specToWAL(spec), Demand: spec.demand})
	}
	if err := s.wal.Rewrite(recs); err != nil {
		return nil, fmt.Errorf("server: wal compaction: %w", err)
	}
	rep.CompactedRecords = len(recs)
	rep.DurationMS = float64(time.Since(t0).Microseconds()) / 1000
	s.recovery.Store(rep)
	if obs.Enabled() {
		obs.Emit("server.recovery", map[string]any{
			"records": rep.Records, "sessions": rep.Sessions,
			"resumed": rep.ResumedBatches, "failed": len(rep.Failed),
			"warmed": rep.PlanKeysWarmed, "ms": rep.DurationMS,
		})
	}
	return rep, nil
}

// replaySession rebuilds one folded session's engine and timeline from its
// logged batches, restoring it into the pool on success. Failed batches
// consumed an ordinal but had no timeline effect and are skipped; completed
// batches are verified against their logged start-cycle/emitted; a torn
// in-flight batch is completed (resumed) here.
func (s *Server) replaySession(ctx context.Context, rs *recSession) (history []batchSummary, resumed, replayed int, err error) {
	eng, err := s.newEngine(rs.spec)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("recovery: rebuild engine: %w", err)
	}
	for _, rb := range rs.batches {
		if rb.state == recFailed {
			continue
		}
		b, err := eng.RequestCtx(ctx, rb.demand)
		if err != nil {
			return nil, resumed, replayed, fmt.Errorf("recovery: re-plan batch %d (demand %d): %w", rb.ord, rb.demand, err)
		}
		if rb.state == recDone {
			if b.StartCycle != rb.startCycle || b.Result.Emitted != rb.emitted {
				return nil, resumed, replayed, fmt.Errorf(
					"recovery: batch %d diverged: replayed start=%d emitted=%d, logged start=%d emitted=%d",
					rb.ord, b.StartCycle, b.Result.Emitted, rb.startCycle, rb.emitted)
			}
		} else {
			resumed++
		}
		replayed++
		history = append(history, batchSummary{
			demand: rb.demand, startCycle: b.StartCycle, emitted: b.Result.Emitted,
		})
	}
	// Restored under the canonical fingerprint of the validated spec (the
	// logged fingerprint is advisory), so post-restart requests match.
	s.pool.restore(rs.name, rs.spec, eng, history)
	return history, resumed, replayed, nil
}

// warmPlanKey re-plans one distinct stateless spec on a throwaway engine,
// which lands the plan back in the server's plan cache.
func (s *Server) warmPlanKey(ctx context.Context, spec *planSpec) error {
	eng, err := s.newEngine(spec)
	if err != nil {
		return err
	}
	_, err = eng.RequestCtx(ctx, spec.demand)
	return err
}

// serveRecovery answers GET /v1/recovery with the last recovery report (or
// a stub when the server runs without a WAL / has not recovered).
func (s *Server) serveRecovery(context.Context, *http.Request) (any, error) {
	if rep := s.recovery.Load(); rep != nil {
		return rep, nil
	}
	return &RecoveryReport{WAL: s.wal != nil}, nil
}
