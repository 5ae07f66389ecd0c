package core

import (
	"context"
	"testing"

	"repro/internal/forest"
	"repro/internal/plancache"
	"repro/internal/stream"
)

// TestRequestCacheHitSkipsRebuild asserts the plan-cache wiring through the
// engine: a second identical Request (even from a fresh Engine on the same
// cache) re-plans without a single from-scratch forest build.
func TestRequestCacheHitSkipsRebuild(t *testing.T) {
	cfg := Config{Target: pcr, Algorithm: MM, Scheduler: stream.SRS, Mixers: 3, Storage: 5, PlanCache: plancache.New(8)}
	e1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e1.Request(32)
	if err != nil {
		t.Fatalf("first Request: %v", err)
	}
	e2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := forest.BuildCount()
	second, err := e2.Request(32)
	if err != nil {
		t.Fatalf("second Request: %v", err)
	}
	if builds := forest.BuildCount() - before; builds != 0 {
		t.Errorf("identical Request performed %d forest builds, want 0 (cache hit)", builds)
	}
	if first.Result.TotalCycles != second.Result.TotalCycles ||
		first.Result.TotalWaste != second.Result.TotalWaste ||
		first.Result.Emitted != second.Result.Emitted {
		t.Errorf("cached Request differs: %+v vs %+v", first.Result, second.Result)
	}
}

// TestPassPlanIsTheRequestedPlan: for a storage-unlimited engine, PlanKey is
// the key a Request caches its one pass under, and PassPlan returns that
// cached plan without building or extending the timeline.
func TestPassPlanIsTheRequestedPlan(t *testing.T) {
	cache := plancache.New(8)
	e, err := New(Config{Target: pcr, Scheduler: stream.SRS, PlanCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Request(20); err != nil {
		t.Fatal(err)
	}
	cached, ok := cache.Get(e.PlanKey(20))
	if !ok {
		t.Fatalf("Request cached no plan under PlanKey(20) = %s", e.PlanKey(20).Canonical())
	}
	builds := cache.Stats().Builds
	p, err := e.PassPlan(context.Background(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if p != cached || cache.Stats().Builds != builds || len(e.Batches()) != 1 {
		t.Fatalf("PassPlan = %p (cached %p), builds %d -> %d, %d batches; want the cached plan, no build, 1 batch",
			p, cached, builds, cache.Stats().Builds, len(e.Batches()))
	}
}

// TestNilPlanCacheLeavesDefaultIdle: an engine without a plan cache plans
// uncached; its Requests neither read nor fill the process-wide cache.
func TestNilPlanCacheLeavesDefaultIdle(t *testing.T) {
	e, err := New(Config{Target: pcr, Scheduler: stream.SRS, Mixers: 3, Storage: 3})
	if err != nil {
		t.Fatal(err)
	}
	before := plancache.Default().Stats()
	for _, n := range []int{33, 33} {
		if _, err := e.Request(n); err != nil {
			t.Fatal(err)
		}
	}
	if after := plancache.Default().Stats(); after != before {
		t.Errorf("plancache.Default() moved: %+v -> %+v", before, after)
	}
}
