package server

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/errormodel"
	"repro/internal/runtime"
	"repro/internal/wal"
)

func TestPlanErrorAware(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp PlanResponse
	code := post(t, ts.URL+"/v1/plan", PlanRequest{
		Ratio: "26:21:2:2:3:3:199", Demand: 8, Mixers: 4,
		ErrorAware: true, SplitImbalance: 0.05, CycleSlack: 0.5,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if !resp.ErrorAware {
		t.Error("response does not echo error_aware")
	}
	switch resp.Algorithm {
	case "MM", "RMA", "MTCS":
	default:
		t.Errorf("selected algorithm %q is not a candidate", resp.Algorithm)
	}
	if resp.PredictedWorstErr <= 0 || resp.PredictedExpectedErr <= 0 {
		t.Errorf("predictions missing: worst %g expected %g", resp.PredictedWorstErr, resp.PredictedExpectedErr)
	}
	if resp.PredictedExpectedErr > resp.PredictedWorstErr {
		t.Errorf("expected %g exceeds worst %g", resp.PredictedExpectedErr, resp.PredictedWorstErr)
	}
	if resp.Emitted < 8 || resp.TotalCycles <= 0 {
		t.Errorf("degenerate plan: %+v", resp)
	}
}

func TestPlanErrorAwareValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  PlanRequest
	}{
		{"with explicit algorithm", PlanRequest{Ratio: "1:3", Demand: 4, ErrorAware: true, Algorithm: "RMA"}},
		{"imbalance out of range", PlanRequest{Ratio: "1:3", Demand: 4, ErrorAware: true, SplitImbalance: 0.7}},
		{"negative dispense error", PlanRequest{Ratio: "1:3", Demand: 4, DispenseError: -0.1}},
		{"negative cycle slack", PlanRequest{Ratio: "1:3", Demand: 4, ErrorAware: true, CycleSlack: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e errorResponse
			if code := post(t, ts.URL+"/v1/plan", tc.req, &e); code != http.StatusBadRequest {
				t.Fatalf("status = %d (error %q), want 400", code, e.Error)
			}
			if e.Error == "" {
				t.Error("error body is empty")
			}
		})
	}
}

func TestPlanErrorAwareServerNoiseDefault(t *testing.T) {
	// A daemon started with -split-imbalance supplies the noise model for
	// requests that do not carry their own.
	_, ts := newTestServer(t, Config{Noise: errormodel.Params{SplitImbalance: 0.05, DispenseError: 0.02}})
	var resp PlanResponse
	code := post(t, ts.URL+"/v1/plan", PlanRequest{
		Ratio: "2:1:1:1:1:1:9", Demand: 8, ErrorAware: true, CycleSlack: 0.25,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if !resp.ErrorAware || resp.PredictedWorstErr <= 0 {
		t.Errorf("server noise default not applied: %+v", resp)
	}
	// Error-blind requests are untouched by the configured noise model.
	var blind PlanResponse
	if code := post(t, ts.URL+"/v1/plan", PlanRequest{Ratio: "2:1:1:1:1:1:9", Demand: 8}, &blind); code != http.StatusOK {
		t.Fatalf("blind status = %d, want 200", code)
	}
	if blind.ErrorAware || blind.PredictedWorstErr != 0 {
		t.Errorf("blind request picked up predictions: %+v", blind)
	}
}

func TestExecuteDerivedPolicy(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp ExecuteResponse
	code := post(t, ts.URL+"/v1/execute", ExecuteRequest{
		PlanRequest: PlanRequest{Ratio: "2:1:1:1:1:1:9", Demand: 4, SplitImbalance: 0.05, DispenseError: 0.02},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if resp.RunEmitted < 4 {
		t.Errorf("run emitted %d, want >= 4", resp.RunEmitted)
	}
	// The derived CF tolerance equals the analytic worst case of this plan
	// under the declared noise, so a fault-free run never trips it and every
	// emitted droplet stays within the bound.
	if resp.Replays != 0 {
		t.Errorf("fault-free run replayed %d times under derived policy", resp.Replays)
	}
	// An explicit recovery budget still overrides the derived one and the
	// request must succeed the same way.
	var capped ExecuteResponse
	code = post(t, ts.URL+"/v1/execute", ExecuteRequest{
		PlanRequest:    PlanRequest{Ratio: "2:1:1:1:1:1:9", Demand: 4, SplitImbalance: 0.05},
		RecoveryBudget: 3,
	}, &capped)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
}

func TestErrorAwareFingerprintsDistinct(t *testing.T) {
	base := PlanRequest{Ratio: "1:3", Demand: 4}
	specBlind, err := parsePlanRequest(&base)
	if err != nil {
		t.Fatal(err)
	}
	aware := PlanRequest{Ratio: "1:3", Demand: 4, ErrorAware: true, SplitImbalance: 0.05}
	specAware, err := parsePlanRequest(&aware)
	if err != nil {
		t.Fatal(err)
	}
	if specBlind.fingerprint() == specAware.fingerprint() {
		t.Error("error-aware and error-blind specs share a fingerprint")
	}
	aware2 := aware
	aware2.SplitImbalance = 0.08
	specAware2, err := parsePlanRequest(&aware2)
	if err != nil {
		t.Fatal(err)
	}
	if specAware.fingerprint() == specAware2.fingerprint() {
		t.Error("different noise magnitudes share a fingerprint")
	}
}

// eaSessionRequest is one batch of the error-aware session the move tests
// share. Its selection changes base graph across the demands used below.
func eaSessionRequest(session string, demand int) PlanRequest {
	return PlanRequest{
		Ratio: "26:21:2:2:3:3:199", Demand: demand, Mixers: 4, Session: session,
		ErrorAware: true, SplitImbalance: 0.05, CycleSlack: 0.5,
	}
}

// sameBatch fails unless two session batches landed identically: start
// cycle, emitted count, chosen base algorithm and predicted error.
func sameBatch(t *testing.T, label string, got, want PlanResponse) {
	t.Helper()
	if got.StartCycle != want.StartCycle || got.Emitted != want.Emitted || got.Algorithm != want.Algorithm ||
		!got.ErrorAware || got.PredictedWorstErr != want.PredictedWorstErr ||
		got.PredictedExpectedErr != want.PredictedExpectedErr {
		t.Fatalf("%s: start=%d emitted=%d alg=%s worst=%g expected=%g, want start=%d emitted=%d alg=%s worst=%g expected=%g",
			label, got.StartCycle, got.Emitted, got.Algorithm, got.PredictedWorstErr, got.PredictedExpectedErr,
			want.StartCycle, want.Emitted, want.Algorithm, want.PredictedWorstErr, want.PredictedExpectedErr)
	}
}

// planEA posts one error-aware session batch.
func planEA(t *testing.T, baseURL, session string, demand int) PlanResponse {
	t.Helper()
	var resp PlanResponse
	if code := post(t, baseURL+"/v1/plan", eaSessionRequest(session, demand), &resp); code != http.StatusOK {
		t.Fatalf("error-aware session batch: status %d", code)
	}
	return resp
}

// TestErrorAwareSessionMoves: an error-aware session journals, recovers,
// migrates and is adopted like any other session. After each move the next
// batch lands exactly where an uninterrupted server puts it.
func TestErrorAwareSessionMoves(t *testing.T) {
	demands, next := []int{8, 30, 6}, 12
	_, ctrl := newTestServer(t, Config{})
	var want []PlanResponse
	for _, d := range append(append([]int(nil), demands...), next) {
		want = append(want, planEA(t, ctrl.URL, "ctrl", d))
	}
	if want[0].Algorithm == want[1].Algorithm {
		t.Fatalf("fixture no longer switches base graph (%s both)", want[0].Algorithm)
	}
	wantNext := want[len(demands)]

	t.Run("wal recovery", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "ea-session.wal")
		l1, info1 := openWAL(t, path)
		s1, _ := newWALServer(t, l1, info1)
		ts1 := newServerAround(t, s1)
		for i, d := range demands {
			sameBatch(t, "before crash", planEA(t, ts1.URL, "ea", d), want[i])
		}
		// Crash: the first server's log is abandoned without Close.
		l2, info2 := openWAL(t, path)
		defer l2.Close()
		s2, rep := newWALServer(t, l2, info2)
		if rep.Sessions != 1 || rep.ReplayedBatches != len(demands) || len(rep.Failed) != 0 {
			t.Fatalf("recovery report: %+v", rep)
		}
		sameBatch(t, "after recovery", planEA(t, newServerAround(t, s2).URL, "ea", next), wantNext)
	})

	t.Run("migration", func(t *testing.T) {
		nodes := newTestCluster(t, 2)
		src, dst := nodes[0], nodes[1]
		name := sessionOwnedBy(t, src.srv.clusterNode.Ring(), src.id)
		for i, d := range demands {
			sameBatch(t, "before migration", planEA(t, src.ts.URL, name, d), want[i])
		}
		if code := post(t, src.ts.URL+"/v1/session/"+name+"/migrate?target="+dst.id, struct{}{}, nil); code != http.StatusOK {
			t.Fatalf("migrate: status %d", code)
		}
		sameBatch(t, "after migration", planEA(t, dst.ts.URL, name, next), wantNext)
	})

	t.Run("adoption", func(t *testing.T) {
		nodes := newTestCluster(t, 2)
		spec, err := parsePlanRequest(&PlanRequest{
			Ratio: "26:21:2:2:3:3:199", Demand: 1, Mixers: 4, ErrorAware: true, SplitImbalance: 0.05, CycleSlack: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		var history []batchSummary
		for i, d := range demands {
			history = append(history, batchSummary{demand: d, startCycle: want[i].StartCycle, emitted: want[i].Emitted})
		}
		frames, err := wal.EncodeFrames(sessionRecords("ea-adopted", spec, history))
		if err != nil {
			t.Fatal(err)
		}
		if code := adoptStatus(t, nodes[1].ts.URL, "ea-adopted", frames); code != http.StatusOK {
			t.Fatalf("adopt: status %d", code)
		}
		sameBatch(t, "after adoption", planEA(t, nodes[1].ts.URL, "ea-adopted", next), wantNext)
	})
}

// TestSpecWALRoundTrip: every field of a valid plan spec survives the WAL
// codec, so the restored spec has the same fingerprint and demand.
func TestSpecWALRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ratios := []string{"1:3", "1:2:5:8", "2:1:1:1:1:1:9", "26:21:2:2:3:3:199"}
	algorithms := []string{"", "MM", "RMA", "MTCS", "RSM", "rma"}
	schedulers := []string{"", "MMS", "mms", "SRS", "srs"}
	noise := func() float64 {
		if rng.Intn(3) == 0 {
			return 0
		}
		return rng.Float64() * 0.5
	}
	for i := 0; i < 2000; i++ {
		req := PlanRequest{
			Ratio: ratios[rng.Intn(len(ratios))], Demand: 1 + rng.Intn(500),
			Mixers: rng.Intn(8), Storage: rng.Intn(16),
			Scheduler:      schedulers[rng.Intn(len(schedulers))],
			SplitImbalance: noise(), DispenseError: noise(),
		}
		if rng.Intn(2) == 0 {
			req.ErrorAware = true
			req.CycleSlack = 2 * noise()
		} else {
			req.Algorithm = algorithms[rng.Intn(len(algorithms))]
		}
		if rng.Intn(2) == 0 {
			req.Session = "s"
		}
		spec, err := parsePlanRequest(&req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		back, err := specFromWAL(specToWAL(spec), spec.demand)
		if err != nil {
			t.Fatalf("%+v: restored spec invalid: %v", req, err)
		}
		if back.fingerprint() != spec.fingerprint() || back.demand != spec.demand {
			t.Fatalf("%+v: round trip %q d%d, want %q d%d", req, back.fingerprint(), back.demand, spec.fingerprint(), spec.demand)
		}
	}
}

// TestErrorBlindWALRecordBytes pins the JSON of an error-blind session-open
// and plan-key record as a server journals them, so adding the error policy
// to the WAL spec leaves every error-blind log byte-identical.
func TestErrorBlindWALRecordBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bytes.wal")
	l, info := openWAL(t, path)
	s, _ := newWALServer(t, l, info)
	ts := newServerAround(t, s)
	req := PlanRequest{Ratio: "2:1:1:1:1:1:9", Demand: 7, Mixers: 3, Storage: 6, Algorithm: "RMA", Scheduler: "srs"}
	if code := post(t, ts.URL+"/v1/plan", req, nil); code != http.StatusOK {
		t.Fatalf("stateless plan: status %d", code)
	}
	req.Session = "s"
	if code := post(t, ts.URL+"/v1/plan", req, nil); code != http.StatusOK {
		t.Fatalf("session plan: status %d", code)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := wal.Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[wal.Kind]string{
		wal.KindPlanKey:     `{"seq":1,"kind":6,"spec":{"ratio":"2:1:1:1:1:1:9","algorithm":"RMA","scheduler":"SRS","mixers":3,"storage":6},"demand":7}`,
		wal.KindSessionOpen: `{"seq":2,"kind":1,"session":"s","fingerprint":"2:1:1:1:1:1:9|RMA|SRS|m3|q6","spec":{"ratio":"2:1:1:1:1:1:9","algorithm":"RMA","scheduler":"SRS","mixers":3,"storage":6}}`,
	}
	for _, rec := range recs {
		w, ok := want[rec.Kind]
		if !ok {
			continue
		}
		got, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != w {
			t.Errorf("%s record\n got %s\nwant %s", rec.Kind, got, w)
		}
		delete(want, rec.Kind)
	}
	for kind := range want {
		t.Errorf("no %s record journaled", kind)
	}
}

// TestParentFormatLogRecovers recovers a log written by the server before
// the WAL spec carried error policies (testdata/parent-format.wal): an SRS
// session of batches 4, 5, 6, one error-blind stateless plan, and one
// error-aware stateless plan journaled without its policy. The session
// resumes on its original timeline and both plan keys warm.
func TestParentFormatLogRecovers(t *testing.T) {
	_, ctrl := newTestServer(t, Config{})
	for _, d := range []int{4, 5, 6} {
		post(t, ctrl.URL+"/v1/plan", PlanRequest{Ratio: "2:1:1:1:1:1:9", Demand: d, Session: "old", Scheduler: "SRS"}, nil)
	}
	var want PlanResponse
	post(t, ctrl.URL+"/v1/plan", PlanRequest{Ratio: "2:1:1:1:1:1:9", Demand: 7, Session: "old", Scheduler: "SRS"}, &want)

	data, err := os.ReadFile(filepath.Join("testdata", "parent-format.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "old.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, info := openWAL(t, path)
	defer l.Close()
	if info.Corrupt != nil {
		t.Fatalf("fixture log corrupt: %+v", info.Corrupt)
	}
	s, rep := newWALServer(t, l, info)
	if rep.Sessions != 1 || rep.ReplayedBatches != 3 || len(rep.Failed) != 0 || rep.PlanKeysWarmed != 2 {
		t.Fatalf("recovery report: %+v", rep)
	}
	var got PlanResponse
	if code := post(t, newServerAround(t, s).URL+"/v1/plan",
		PlanRequest{Ratio: "2:1:1:1:1:1:9", Demand: 7, Session: "old", Scheduler: "SRS"}, &got); code != http.StatusOK {
		t.Fatalf("post-recovery batch: status %d", code)
	}
	if got.StartCycle != want.StartCycle || got.Emitted != want.Emitted {
		t.Fatalf("recovered batch start=%d emitted=%d, want start=%d emitted=%d",
			got.StartCycle, got.Emitted, want.StartCycle, want.Emitted)
	}
}

// TestExecutePolicyMatchesForestAnalysis pins the closed-loop policy a
// /v1/execute run derives: it must equal runtime.DeriveFromModel over the
// closed-form analysis of the first pass's forest, on a single-pass plan, a
// storage-limited multi-pass plan and an error-aware plan whose selection
// leaves MM (Table 2 Ex.1 at ι = 0.08, DESIGN §14).
func TestExecutePolicyMatchesForestAnalysis(t *testing.T) {
	s := New(Config{})
	cases := []struct {
		name string
		req  ExecuteRequest
	}{
		{"single-pass", ExecuteRequest{PlanRequest: PlanRequest{
			Ratio: "2:1:1:1:1:1:9", Demand: 20, SplitImbalance: 0.05, DispenseError: 0.02}}},
		{"storage-limited", ExecuteRequest{PlanRequest: PlanRequest{
			Ratio: "2:1:1:1:1:1:9", Demand: 41, Storage: 3, SplitImbalance: 0.03}}},
		{"error-aware", ExecuteRequest{PlanRequest: PlanRequest{
			Ratio: "26:21:2:2:3:3:199", Demand: 16, Mixers: 4, ErrorAware: true,
			SplitImbalance: 0.08, DispenseError: 0.04, CycleSlack: 0.25}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := tc.req
			spec, err := parsePlanRequest(&req.PlanRequest)
			if err != nil {
				t.Fatal(err)
			}
			_, b, done, err := s.planBatch(context.Background(), &req.PlanRequest, spec)
			if err != nil {
				t.Fatal(err)
			}
			defer done()
			switch tc.name {
			case "storage-limited":
				if len(b.Result.Passes) < 2 {
					t.Fatalf("plan runs %d passes, want a multi-pass plan", len(b.Result.Passes))
				}
			case "error-aware":
				if sel := b.Result.Selection; sel == nil || sel.Algorithm == "MM" {
					t.Fatalf("selection %+v does not leave MM", sel)
				}
			}
			got, err := s.executePolicy(&req, b)
			if err != nil {
				t.Fatal(err)
			}
			noise := errormodel.Params{SplitImbalance: req.SplitImbalance, DispenseError: req.DispenseError}
			an, err := errormodel.Analyze(b.Result.Passes[0].Plan.Forest(), noise)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runtime.DeriveFromModel(noise, an)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("executePolicy = %+v, want %+v", got, want)
			}
		})
	}
}
