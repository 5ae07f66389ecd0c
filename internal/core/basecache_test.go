package core

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/minmix"
	"repro/internal/plancache"
	"repro/internal/ratio"
	"repro/internal/sched"
	"repro/internal/stream"
)

// TestBaseCacheSharing checks engines for the same (algorithm, target) share
// one immutable base graph and resolved mixer count.
func TestBaseCacheSharing(t *testing.T) {
	purgeBaseCaches()
	cfg := Config{Target: ratio.MustParse("2:1:1:1:1:1:9"), Algorithm: MM, Scheduler: stream.SRS}
	e1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Base() != e2.Base() {
		t.Fatal("same config built two base graphs")
	}
	mm, err := minmix.Build(cfg.Target)
	if err != nil {
		t.Fatal(err)
	}
	if want := sched.Mlb(mm); e1.Mixers() != want {
		t.Fatalf("cached Mlb %d, want %d", e1.Mixers(), want)
	}
}

// TestBaseCacheNameIsolation checks differently-named targets do not share
// a cached graph (names ride on Graph.Target).
func TestBaseCacheNameIsolation(t *testing.T) {
	purgeBaseCaches()
	plain := ratio.MustParse("1:3")
	named, err := plain.WithNames("buffer", "sample")
	if err != nil {
		t.Fatal(err)
	}
	e1, err := New(Config{Target: plain, Algorithm: MM})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(Config{Target: named, Algorithm: MM})
	if err != nil {
		t.Fatal(err)
	}
	if e1.Base() == e2.Base() {
		t.Fatal("named and unnamed targets share a cached graph")
	}
	if got := e2.Base().Target.Name(0); got != "buffer" {
		t.Fatalf("cached named graph lost its names: %q", got)
	}
	// Same names again: now it must hit.
	e3, err := New(Config{Target: named, Algorithm: MM})
	if err != nil {
		t.Fatal(err)
	}
	if e2.Base() != e3.Base() {
		t.Fatal("identical named targets missed the cache")
	}
	// Names may hold any bytes: two name lists that join to the same
	// string under a separator must still keep their own graphs.
	for _, names := range [][]string{{"a\x1fb", "c", "d"}, {"a", "b\x1fc", "d"}, {"a", "b", "\x1fc\x1fd"}} {
		target, err := ratio.MustParse("1:1:2").WithNames(names...)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{Target: target, Algorithm: MM})
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Base().Target.Names(); !slices.Equal(got, names) {
			t.Fatalf("target named %q planned on a graph named %q", names, got)
		}
	}
}

// TestBaseCacheConcurrent exercises concurrent first use under -race.
func TestBaseCacheConcurrent(t *testing.T) {
	purgeBaseCaches()
	cfg := Config{Target: ratio.MustParse("2:1:1:1:1:1:9"), Algorithm: MTCS, Scheduler: stream.SRS}
	var wg sync.WaitGroup
	engines := make([]*Engine, 8)
	for i := range engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := New(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			engines[i] = e
		}(i)
	}
	wg.Wait()
	for _, e := range engines {
		if e == nil {
			t.Fatal("engine missing")
		}
		if _, err := e.Request(6); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWarmPlanRequestAllocs pins the allocations of a warm plan request —
// fresh stateless Engine, warm base cache, plan-cache hit. The seed
// measured 277 on this exact path (engine construction rebuilt the base
// graph and re-ran the Mlb search every request). Rendering the base-cache
// key from the fluid names cost 10 more until the ratio carried its colon
// form and the key became a struct of it.
func TestWarmPlanRequestAllocs(t *testing.T) {
	cfg := Config{Target: ratio.MustParse("2:1:1:1:1:1:9"), Algorithm: MM, Scheduler: stream.SRS, PlanCache: plancache.New(8)}
	warm := func() {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Request(20); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	allocs := testing.AllocsPerRun(100, warm)
	if allocs > 7 {
		t.Fatalf("warm plan request allocates %.1f objects, want <= 7 (seed: 277)", allocs)
	}
}

// BenchmarkWarmPlanRequest times the path TestWarmPlanRequestAllocs bounds:
// a fresh stateless Engine plus Request(20) against warm base and plan
// caches — the per-request work dmfbd does for a repeated plan.
func BenchmarkWarmPlanRequest(b *testing.B) {
	cfg := Config{Target: ratio.MustParse("2:1:1:1:1:1:9"), Algorithm: MM, Scheduler: stream.SRS, PlanCache: plancache.New(8)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Request(20); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBaseCachePlanEquivalence checks a cached-base engine plans exactly
// what a cold engine would (the plan cache keys on the graph fingerprint,
// which is identical for structurally equal graphs).
func TestBaseCachePlanEquivalence(t *testing.T) {
	purgeBaseCaches()
	cfg := Config{Target: ratio.MustParse("26:21:2:2:3:3:199"), Algorithm: RMA, Scheduler: stream.MMS, Storage: 5}
	e1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := e1.Request(30)
	if err != nil {
		t.Fatal(err)
	}
	purgeBaseCaches()
	e2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := e2.Request(30)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Result.TotalCycles != b2.Result.TotalCycles ||
		b1.Result.TotalWaste != b2.Result.TotalWaste ||
		b1.Result.TotalInputs != b2.Result.TotalInputs ||
		b1.Result.PerPassDemand != b2.Result.PerPassDemand ||
		len(b1.Result.Passes) != len(b2.Result.Passes) {
		t.Fatalf("warm and cold plans differ: %+v vs %+v", b1.Result, b2.Result)
	}
}
