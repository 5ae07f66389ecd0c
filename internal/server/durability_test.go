package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/plancache"
	"repro/internal/ratio"
	"repro/internal/wal"
)

// openWAL opens (or reopens) the test WAL at path.
func openWAL(t *testing.T, path string) (*wal.Log, *wal.ReplayInfo) {
	t.Helper()
	l, info, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return l, info
}

// newWALServer builds a server around the WAL and runs recovery.
func newWALServer(t *testing.T, l *wal.Log, info *wal.ReplayInfo) (*Server, *RecoveryReport) {
	t.Helper()
	s := New(Config{WAL: l})
	rep, err := s.Recover(context.Background(), info)
	if err != nil {
		t.Fatal(err)
	}
	return s, rep
}

// TestWALSessionRecovery runs three session batches against a WAL-backed
// server, "crashes" it (no clean close), and verifies a second server
// recovering from the same log continues the session timeline exactly where
// the first left off.
func TestWALSessionRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dmfbd.wal")
	l1, info1 := openWAL(t, path)
	s1, _ := newWALServer(t, l1, info1)
	ts1 := newServerAround(t, s1)

	var elapsed int
	for i := 0; i < 3; i++ {
		var resp PlanResponse
		code := post(t, ts1.URL+"/v1/plan", PlanRequest{
			Ratio: "2:1:1:1:1:1:9", Demand: 4 + i, Session: "recover-me", Scheduler: "SRS",
		}, &resp)
		if code != http.StatusOK {
			t.Fatalf("batch %d status = %d", i+1, code)
		}
		if want := elapsed + 1; resp.StartCycle != want {
			t.Fatalf("batch %d start_cycle = %d, want %d", i+1, resp.StartCycle, want)
		}
		elapsed += resp.TotalCycles
	}
	// Crash: the first server's log is abandoned without Close.

	l2, info2 := openWAL(t, path)
	if len(info2.Records) == 0 {
		t.Fatal("no records survived the crash")
	}
	s2, rep := newWALServer(t, l2, info2)
	if rep.Sessions != 1 || rep.ReplayedBatches != 3 || len(rep.Failed) != 0 {
		t.Fatalf("recovery report: %+v", rep)
	}
	ts2 := newServerAround(t, s2)
	var resp PlanResponse
	if code := post(t, ts2.URL+"/v1/plan", PlanRequest{
		Ratio: "2:1:1:1:1:1:9", Demand: 5, Session: "recover-me", Scheduler: "SRS",
	}, &resp); code != http.StatusOK {
		t.Fatalf("post-recovery batch status = %d", code)
	}
	if want := elapsed + 1; resp.StartCycle != want {
		t.Fatalf("post-recovery start_cycle = %d, want %d (timeline not resumed)", resp.StartCycle, want)
	}
	// A conflicting config on the recovered session must still 409.
	var e errorResponse
	if code := post(t, ts2.URL+"/v1/plan", PlanRequest{
		Ratio: "2:1:1:1:1:1:9", Demand: 5, Session: "recover-me", Scheduler: "MMS",
	}, &e); code != http.StatusConflict {
		t.Fatalf("conflicting recovered session = %d, want 409", code)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	// The compacted log must replay cleanly and still carry the session.
	recs, err := wal.Replay(path)
	if err != nil {
		t.Fatalf("compacted log dirty: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("compacted log empty")
	}
}

// newServerAround mounts an existing Server on an httptest server.
func newServerAround(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// get issues a GET and decodes the JSON body into out (when non-nil).
func get(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	}
	return resp.StatusCode
}

// postRaw is post, additionally returning the raw response for header
// checks.
func postRaw(t *testing.T, url string, body, out any) (*http.Response, int) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	}
	return resp, resp.StatusCode
}

func mustParseRatio(t *testing.T, s string) ratio.Ratio {
	t.Helper()
	r, err := ratio.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestWALRecoveryResumesTornBatch writes a session-open plus a batch-accept
// with no done record — the shape a SIGKILL mid-plan leaves — and verifies
// recovery completes the torn batch rather than dropping it.
func TestWALRecoveryResumesTornBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	l, _ := openWAL(t, path)
	spec := &wal.Spec{Ratio: "2:1:1:1:1:1:9", Scheduler: "SRS"}
	mustAppend(t, l, wal.Record{Kind: wal.KindSessionOpen, Session: "torn", Fingerprint: "2:1:1:1:1:1:9||SRS|m0|q0", Spec: spec})
	mustAppend(t, l, wal.Record{Kind: wal.KindBatchAccept, Session: "torn", Batch: 1, Demand: 6})
	// Crash without closing.

	l2, info := openWAL(t, path)
	defer l2.Close()
	s, rep := newWALServer(t, l2, info)
	if rep.Sessions != 1 || rep.ResumedBatches != 1 || len(rep.Failed) != 0 {
		t.Fatalf("recovery report: %+v", rep)
	}
	// The resumed batch is on the timeline: batch 2 starts after it.
	ts := newServerAround(t, s)
	var resp PlanResponse
	if code := post(t, ts.URL+"/v1/plan", PlanRequest{
		Ratio: "2:1:1:1:1:1:9", Demand: 4, Session: "torn", Scheduler: "SRS",
	}, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.StartCycle <= 1 {
		t.Fatalf("start_cycle = %d; the torn batch was dropped", resp.StartCycle)
	}
}

// TestWALRecoveryTypedFailures exercises logs recovery must refuse to guess
// about: a batch record without a session-open, and an ordinal gap. Both
// surface as typed per-session failures in the report — never a silent drop.
func TestWALRecoveryTypedFailures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "broken.wal")
	l, _ := openWAL(t, path)
	spec := &wal.Spec{Ratio: "1:3"}
	// Session "gap": open, then accept ordinal 2 (1 never logged).
	mustAppend(t, l, wal.Record{Kind: wal.KindSessionOpen, Session: "gap", Fingerprint: "1:3|||m0|q0", Spec: spec})
	mustAppend(t, l, wal.Record{Kind: wal.KindBatchAccept, Session: "gap", Batch: 2, Demand: 4})
	// Session "orphan": batch record with no open.
	mustAppend(t, l, wal.Record{Kind: wal.KindBatchDone, Session: "orphan", Batch: 1, Demand: 4, StartCycle: 1, Emitted: 4})

	l2, info := openWAL(t, path)
	defer l2.Close()
	_, rep := newWALServer(t, l2, info)
	if rep.Sessions != 0 {
		t.Fatalf("restored %d sessions from a broken log", rep.Sessions)
	}
	if len(rep.Failed) != 2 {
		t.Fatalf("Failed = %+v, want 2 typed failures", rep.Failed)
	}
	for _, f := range rep.Failed {
		if f.Error == "" {
			t.Fatalf("failure for %q has no typed error", f.Session)
		}
	}
}

func mustAppend(t *testing.T, l *wal.Log, rec wal.Record) {
	t.Helper()
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveringGate verifies a WAL server refuses /v1 traffic with 503 +
// Retry-After until Recover has run, and that readiness reports the state.
func TestRecoveringGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gate.wal")
	l, info := openWAL(t, path)
	defer l.Close()
	s := New(Config{WAL: l})
	ts := newServerAround(t, s)

	var e errorResponse
	resp, code := postRaw(t, ts.URL+"/v1/plan", PlanRequest{Ratio: "1:3", Demand: 4}, &e)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("pre-recovery status = %d, want 503", code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("pre-recovery 503 without Retry-After")
	}
	var ready readyResponse
	if code := get(t, ts.URL+"/healthz/ready", &ready); code != http.StatusServiceUnavailable || ready.Status != "recovering" {
		t.Fatalf("ready = %d %q, want 503 recovering", code, ready.Status)
	}
	if code := get(t, ts.URL+"/healthz/live", nil); code != http.StatusOK {
		t.Fatalf("live = %d, want 200 even while recovering", code)
	}

	if _, err := s.Recover(context.Background(), info); err != nil {
		t.Fatal(err)
	}
	if code := post(t, ts.URL+"/v1/plan", PlanRequest{Ratio: "1:3", Demand: 4}, nil); code != http.StatusOK {
		t.Fatalf("post-recovery status = %d, want 200", code)
	}
	if code := get(t, ts.URL+"/healthz/ready", &ready); code != http.StatusOK || ready.Status != "ready" {
		t.Fatalf("ready = %d %q, want 200 ready", code, ready.Status)
	}
	if !ready.WAL {
		t.Fatal("ready body does not report the WAL")
	}
	var rr RecoveryReport
	if code := get(t, ts.URL+"/v1/recovery", &rr); code != http.StatusOK || !rr.WAL {
		t.Fatalf("/v1/recovery = %d %+v", code, rr)
	}
}

// TestSessionPinBlocksEviction is the regression test for the
// eviction-vs-in-flight race: while any request holds a session, an LRU
// flood through its shard must not evict it (a fork would rebuild the
// engine and restart the timeline at cycle 1).
func TestSessionPinBlocksEviction(t *testing.T) {
	pool := newSessionPool(sessionShards) // capacity 1 per shard
	poolSpec := mustSpec(t, PlanRequest{Ratio: "1:3", Demand: 1})
	build := func() (*core.Engine, error) {
		return core.New(core.Config{Target: mustParseRatio(t, "1:3")})
	}
	victim, release, err := pool.acquire("victim", poolSpec, build, nil)
	if err != nil {
		t.Fatal(err)
	}
	shard := pool.shard("victim")
	// Flood the victim's shard.
	flooded := 0
	for i := 0; flooded < 32; i++ {
		name := fmt.Sprintf("flood-%d", i)
		if pool.shard(name) != shard {
			continue
		}
		flooded++
		_, rel, err := pool.acquire(name, poolSpec, build, nil)
		if err != nil {
			t.Fatal(err)
		}
		rel()
	}
	got, rel2, err := pool.acquire("victim", poolSpec, func() (*core.Engine, error) {
		t.Fatal("pinned session was evicted and rebuilt")
		return nil, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != victim {
		t.Fatal("pinned session was replaced during the flood")
	}
	rel2()
	release()
	// Unpinned now: one more insert through the shard evicts it.
	for i := 1000; ; i++ {
		name := fmt.Sprintf("flood-%d", i)
		if pool.shard(name) != shard {
			continue
		}
		_, rel, err := pool.acquire(name, poolSpec, build, nil)
		if err != nil {
			t.Fatal(err)
		}
		rel()
		break
	}
	rebuilt := false
	_, rel3, err := pool.acquire("victim", poolSpec, func() (*core.Engine, error) {
		rebuilt = true
		return build()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rel3()
	if !rebuilt {
		t.Fatal("unpinned LRU session survived the flood; eviction is broken")
	}
}

// TestSessionEvictionStressWALConsistent hammers one WAL-journaled session
// from many goroutines while churn sessions apply LRU pressure to its
// shard. Run with -race this is the stress regression for the
// eviction/in-flight race; afterwards the log must fold into a consistent
// recovery state (no broken sessions, no silent batch loss).
func TestSessionEvictionStressWALConsistent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stress.wal")
	l, info := openWAL(t, path)
	s := New(Config{Sessions: sessionShards, WAL: l}) // 1 session per shard
	if _, err := s.Recover(context.Background(), info); err != nil {
		t.Fatal(err)
	}
	ts := newServerAround(t, s)

	const workers, perWorker = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var resp PlanResponse
				code := post(t, ts.URL+"/v1/plan", PlanRequest{
					Ratio: "1:3", Demand: 4, Session: "victim",
				}, &resp)
				if code != http.StatusOK {
					errs <- fmt.Errorf("victim request: status %d", code)
					return
				}
			}
		}()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				code := post(t, ts.URL+"/v1/plan", PlanRequest{
					Ratio: "1:3", Demand: 4, Session: fmt.Sprintf("churn-%d-%d", w, i),
				}, nil)
				if code != http.StatusOK {
					errs <- fmt.Errorf("churn request: status %d", code)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The journal of the stress must recover without a single typed failure:
	// a forked session would have duplicated batch ordinals and broken the
	// fold.
	l2, info2 := openWAL(t, path)
	defer l2.Close()
	_, rep := newWALServer(t, l2, info2)
	if len(rep.Failed) != 0 {
		t.Fatalf("stress log recovery failed sessions: %+v", rep.Failed)
	}
}

// TestAssayEndpoint exercises POST /v1/assay against a healthy fleet and
// the disabled path.
func TestAssayEndpoint(t *testing.T) {
	f := fleet.New(fleet.Config{Chips: fleet.DefaultChips(2)})
	s := New(Config{Fleet: f})
	ts := newServerAround(t, s)

	var resp AssayResponse
	code := post(t, ts.URL+"/v1/assay", AssayRequest{
		PlanRequest: PlanRequest{Ratio: "2:1:1:1:1:1:9", Demand: 4, Scheduler: "SRS"},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Chip == "" || resp.RunEmitted < 4 || resp.MaxCFError != 0 {
		t.Fatalf("degenerate assay response: %+v", resp)
	}

	var e errorResponse
	if code := post(t, ts.URL+"/v1/assay", AssayRequest{
		PlanRequest: PlanRequest{Ratio: "1:3", Demand: 4, Session: "x"},
	}, &e); code != http.StatusBadRequest {
		t.Fatalf("session-routed assay = %d, want 400", code)
	}

	var ready readyResponse
	if code := get(t, ts.URL+"/healthz/ready", &ready); code != http.StatusOK {
		t.Fatalf("ready = %d", code)
	}
	if len(ready.Chips) != 2 {
		t.Fatalf("ready chips = %d, want per-chip health for 2", len(ready.Chips))
	}

	// No fleet: 501.
	bare := New(Config{})
	ts2 := newServerAround(t, bare)
	if code := post(t, ts2.URL+"/v1/assay", AssayRequest{
		PlanRequest: PlanRequest{Ratio: "1:3", Demand: 4},
	}, &e); code != http.StatusNotImplemented {
		t.Fatalf("assay without fleet = %d, want 501", code)
	}
}

// TestHealthReadyFleetStates walks readiness through degraded and
// fleet-unavailable.
func TestHealthReadyFleetStates(t *testing.T) {
	f := fleet.New(fleet.Config{Chips: []fleet.ChipSpec{{Name: "only", Mixers: 2, Storage: 4}}})
	s := New(Config{Fleet: f})
	ts := newServerAround(t, s)

	var ready readyResponse
	if code := get(t, ts.URL+"/healthz/ready", &ready); code != http.StatusOK || ready.Status != "ready" {
		t.Fatalf("pristine fleet ready = %d %q", code, ready.Status)
	}
	if err := f.DegradeChip("only", 0.1, 0); err != nil {
		t.Fatal(err)
	}
	if code := get(t, ts.URL+"/healthz/ready", &ready); code != http.StatusOK || ready.Status != "degraded" {
		t.Fatalf("degraded fleet ready = %d %q, want 200 degraded", code, ready.Status)
	}
	if err := f.DegradeChip("only", -1, 2); err != nil {
		t.Fatal(err)
	}
	if code := get(t, ts.URL+"/healthz/ready", &ready); code != http.StatusServiceUnavailable || ready.Status != "fleet-unavailable" {
		t.Fatalf("dead fleet ready = %d %q, want 503 fleet-unavailable", code, ready.Status)
	}
}

// TestErrorAwarePlanKeySurvivesRestart: an error-aware stateless plan is
// journaled with its policy, so recovery warms exactly that plan (the repeat
// after the restart builds nothing) and the restart's dedupe recognises it
// (the log holds one plan-key record for it, not one per restart).
func TestErrorAwarePlanKeySurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ea.wal")
	req := PlanRequest{Ratio: "26:21:2:2:3:3:199", Demand: 8, Mixers: 4, ErrorAware: true, SplitImbalance: 0.05, CycleSlack: 0.5}

	l1, info1 := openWAL(t, path)
	s1 := New(Config{WAL: l1, PlanCache: plancache.New(64)})
	if _, err := s1.Recover(context.Background(), info1); err != nil {
		t.Fatal(err)
	}
	if code := post(t, newServerAround(t, s1).URL+"/v1/plan", req, nil); code != http.StatusOK {
		t.Fatalf("first request: status %d", code)
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}

	l2, info2 := openWAL(t, path)
	cache := plancache.New(64)
	s2 := New(Config{WAL: l2, PlanCache: cache})
	rep, err := s2.Recover(context.Background(), info2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PlanKeysWarmed != 1 {
		t.Fatalf("recovery warmed %d plan keys, want 1", rep.PlanKeysWarmed)
	}
	builds := cache.Stats().Builds
	if code := post(t, newServerAround(t, s2).URL+"/v1/plan", req, nil); code != http.StatusOK {
		t.Fatalf("repeat request: status %d", code)
	}
	if got := cache.Stats().Builds - builds; got != 0 {
		t.Errorf("repeat after restart built %d plans; recovery warmed the wrong plan", got)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := wal.Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	keys := 0
	for _, rec := range recs {
		if rec.Kind == wal.KindPlanKey {
			keys++
		}
	}
	if keys != 1 {
		t.Errorf("log holds %d plan-key records, want 1", keys)
	}
}

// TestPlanKeyJournalBoundedByCache: the stateless plan-key journal keeps
// only as many keys as the plan cache holds. After 20 distinct plans on a
// 4-entry cache, a restart warms the newest 4 (a repeat of each builds
// nothing), compacts the log to those 4 records, and builds nothing else.
func TestPlanKeyJournalBoundedByCache(t *testing.T) {
	const capacity, plans = 4, 20
	path := filepath.Join(t.TempDir(), "keys.wal")
	req := func(i int) PlanRequest {
		return PlanRequest{Ratio: "2:1:1:1:1:1:9", Demand: 2 + 2*i, Scheduler: "SRS"}
	}

	l1, info1 := openWAL(t, path)
	s1 := New(Config{WAL: l1, PlanCache: plancache.New(capacity)})
	if _, err := s1.Recover(context.Background(), info1); err != nil {
		t.Fatal(err)
	}
	ts1 := newServerAround(t, s1)
	for i := 0; i < plans; i++ {
		if code := post(t, ts1.URL+"/v1/plan", req(i), nil); code != http.StatusOK {
			t.Fatalf("plan %d: status %d", i, code)
		}
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}

	l2, info2 := openWAL(t, path)
	cache := plancache.New(capacity)
	s2 := New(Config{WAL: l2, PlanCache: cache})
	rep, err := s2.Recover(context.Background(), info2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PlanKeysWarmed != capacity || rep.CompactedRecords != capacity {
		t.Fatalf("recovery warmed %d plan keys and compacted to %d records, want %d and %d",
			rep.PlanKeysWarmed, rep.CompactedRecords, capacity, capacity)
	}
	if st := cache.Stats(); st.Builds != capacity {
		t.Fatalf("recovery built %d plans, want %d", st.Builds, capacity)
	}
	ts2 := newServerAround(t, s2)
	for i := plans - capacity; i < plans; i++ {
		if code := post(t, ts2.URL+"/v1/plan", req(i), nil); code != http.StatusOK {
			t.Fatalf("repeat of plan %d: status %d", i, code)
		}
	}
	if got := cache.Stats().Builds; got != capacity {
		t.Errorf("repeating the newest %d plans after the restart built %d plans, want none", capacity, got-capacity)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := wal.Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	var demands []int
	for _, rec := range recs {
		if rec.Kind == wal.KindPlanKey {
			demands = append(demands, rec.Demand)
		}
	}
	if want := []int{34, 36, 38, 40}; !slices.Equal(demands, want) {
		t.Errorf("log holds plan keys for demands %v, want %v", demands, want)
	}
}
