package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/plancache"
	"repro/internal/synth"
)

// recordingTier is a plan-cache tier that never has a plan and keeps every
// plan its cache builds, so a test can inspect what the cache holds.
type recordingTier struct {
	mu    sync.Mutex
	plans []*plancache.Plan
}

func (r *recordingTier) Fetch(context.Context, plancache.Key) (*plancache.Plan, bool) {
	return nil, false
}

func (r *recordingTier) Publish(_ context.Context, _ plancache.Key, p *plancache.Plan) {
	r.mu.Lock()
	r.plans = append(r.plans, p)
	r.mu.Unlock()
}

// TestPlanAndStreamNeverMaterialize replays a plan-cold style mix —
// PaperDataset specs on /v1/plan and /v1/stream, a quarter storage-limited,
// a tenth error-aware, a few session batches — and requires that no plan
// the cache built was ever materialized: plan and stream answers, demand
// scans and error-aware scoring all read the packed slab. A /v1/execute
// afterwards materializes the one plan it runs.
func TestPlanAndStreamNeverMaterialize(t *testing.T) {
	tier := &recordingTier{}
	cache := plancache.New(plancache.DefaultCapacity)
	cache.SetTier(tier)
	h := New(Config{PlanCache: cache}).Handler()
	serve := func(path string, req any) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", path, body, w.Code, w.Body)
		}
	}

	paper := synth.PaperDataset()
	rng := rand.New(rand.NewSource(1))
	errorAware, limited := 0, 0
	for i := 0; i < 200; i++ {
		req := PlanRequest{
			Ratio:     paper[rng.Intn(len(paper))].String(),
			Demand:    2 + rng.Intn(127),
			Scheduler: []string{"MMS", "SRS"}[rng.Intn(2)],
		}
		path := "/v1/plan"
		if rng.Float64() < 0.25 {
			path = "/v1/stream"
			req.Storage = []int{6, 8}[rng.Intn(2)]
			limited++
		}
		if rng.Float64() < 0.10 {
			req.ErrorAware = true
			req.SplitImbalance = 0.05
			errorAware++
		} else {
			req.Algorithm = []string{"MM", "RMA", "MTCS"}[rng.Intn(3)]
		}
		if i%20 == 0 {
			req.Session = fmt.Sprintf("s%d", i)
		}
		serve(path, req)
	}
	if limited == 0 || errorAware == 0 {
		t.Fatalf("test premise: %d storage-limited and %d error-aware requests", limited, errorAware)
	}
	if len(tier.plans) < 100 {
		t.Fatalf("test premise: the cache built only %d plans", len(tier.plans))
	}
	for i, p := range tier.plans {
		if p.Packed() == nil {
			t.Fatalf("built plan %d has no packed slab", i)
		}
		if p.Materialized() {
			t.Fatalf("built plan %d of %d was materialized by a plan or stream request", i, len(tier.plans))
		}
	}

	built := len(tier.plans)
	serve("/v1/execute", PlanRequest{Ratio: "2:1:1:1:1:1:9", Demand: 130})
	if len(tier.plans) != built+1 || !tier.plans[built].Materialized() {
		t.Fatalf("/v1/execute did not materialize the plan it built and ran")
	}
	t.Logf("%d plans built (%d storage-limited, %d error-aware requests), none materialized", built, limited, errorAware)
}
