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

	"repro/internal/artifact"
	"repro/internal/plancache"
	"repro/internal/synth"
)

// recordingTier is a plan-cache tier that keeps every plan its cache
// builds, so a test can inspect what the cache holds, and passes each
// call on to next; with no next it never has a plan.
type recordingTier struct {
	next  plancache.Tier
	mu    sync.Mutex
	plans []*plancache.Plan
}

func (r *recordingTier) Fetch(ctx context.Context, k plancache.Key) (*plancache.Plan, bool) {
	if r.next == nil {
		return nil, false
	}
	return r.next.Fetch(ctx, k)
}

func (r *recordingTier) Publish(ctx context.Context, k plancache.Key, p *plancache.Plan) {
	r.mu.Lock()
	r.plans = append(r.plans, p)
	r.mu.Unlock()
	if r.next != nil {
		r.next.Publish(ctx, k, p)
	}
}

// replayPlanCold serves h a plan-cold style mix — 200 PaperDataset specs
// on /v1/plan and /v1/stream, a quarter storage-limited, a tenth
// error-aware, one in twenty a session batch — and returns the number of
// storage-limited and error-aware requests.
func replayPlanCold(t *testing.T, h http.Handler) (limited, errorAware int) {
	t.Helper()
	paper := synth.PaperDataset()
	rng := rand.New(rand.NewSource(1))
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
		serve(t, h, path, req)
	}
	if limited == 0 || errorAware == 0 {
		t.Fatalf("test premise: %d storage-limited and %d error-aware requests", limited, errorAware)
	}
	return limited, errorAware
}

// serve posts req to h's path and requires a 200.
func serve(t *testing.T, h http.Handler, path string, req any) {
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
	limited, errorAware := replayPlanCold(t, h)
	if len(tier.plans) < 100 {
		t.Fatalf("test premise: the cache built only %d plans", len(tier.plans))
	}
	for i, p := range tier.plans {
		if p.Packed().Tasks == nil {
			t.Fatalf("built plan %d has no packed slab", i)
		}
		if p.Materialized() {
			t.Fatalf("built plan %d of %d was materialized by a plan or stream request", i, len(tier.plans))
		}
	}

	built := len(tier.plans)
	serve(t, h, "/v1/execute", PlanRequest{Ratio: "2:1:1:1:1:1:9", Demand: 130})
	if len(tier.plans) != built+1 || !tier.plans[built].Materialized() {
		t.Fatalf("/v1/execute did not materialize the plan it built and ran")
	}
	t.Logf("%d plans built (%d storage-limited, %d error-aware requests), none materialized", built, limited, errorAware)
}

// TestTieredPublishNeverMaterializes: a tiered server encodes every
// pristine plan it builds as an artifact and publishes it; encoding reads
// the slab, so after the publishes finish no plan the cache built has been
// materialized, and every one of them reached the disk tier.
func TestTieredPublishNeverMaterializes(t *testing.T) {
	store, err := artifact.OpenStore(t.TempDir(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	cache := plancache.New(plancache.DefaultCapacity)
	srv := New(Config{PlanCache: cache, Artifacts: store})
	tier := &recordingTier{next: artifactTier{srv}}
	cache.SetTier(tier)
	replayPlanCold(t, srv.Handler())
	srv.WaitPublish()
	if len(tier.plans) < 100 || store.Len() != len(tier.plans) {
		t.Fatalf("test premise: %d plans built, %d artifacts stored", len(tier.plans), store.Len())
	}
	for i, p := range tier.plans {
		if p.Materialized() {
			t.Fatalf("built plan %d of %d was materialized by its publish", i, len(tier.plans))
		}
	}
}
