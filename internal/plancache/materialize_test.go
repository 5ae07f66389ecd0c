package plancache_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/audit"
	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/plancache"
	"repro/internal/ratio"
	"repro/internal/sched"
	"repro/internal/stream"
)

// TestConcurrentMaterialize shares one cached slab between goroutines that
// all ask for its pointer forms at once, half Forest first and half
// Schedule first. Every goroutine must get the same forest and schedule,
// the schedule must be over that forest, and the pair must pass the
// pointer-form audit. `make race` runs it under the race detector.
func TestConcurrentMaterialize(t *testing.T) {
	g, err := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	if err != nil {
		t.Fatal(err)
	}
	cache := plancache.New(4)
	key := plancache.KeyFor(g, 64, 3, "SRS", plancache.PristinePolicy)
	built, err := cache.GetOrBuildCtx(context.Background(), key, func() (*plancache.Plan, error) {
		return stream.BuildPlan(stream.Config{Base: g, Mixers: 3, Scheduler: stream.SRS}, 64)
	})
	if err != nil {
		t.Fatal(err)
	}
	if built.Materialized() {
		t.Fatal("a freshly built plan is already materialized")
	}

	const workers = 16
	forests := make([]*forest.Forest, workers)
	schedules := make([]*sched.Schedule, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, ok := cache.Get(key)
			if !ok {
				t.Error("shared plan evicted")
				return
			}
			<-start
			if i%2 == 0 {
				forests[i], schedules[i] = p.Forest(), p.Schedule()
			} else {
				schedules[i], forests[i] = p.Schedule(), p.Forest()
			}
		}()
	}
	close(start)
	wg.Wait()
	for i := range workers {
		if forests[i] != forests[0] || schedules[i] != schedules[0] {
			t.Fatalf("goroutine %d got forms (%p, %p), goroutine 0 (%p, %p)", i, forests[i], schedules[i], forests[0], schedules[0])
		}
	}
	if schedules[0].Forest != forests[0] {
		t.Fatal("the schedule is not over the plan's forest")
	}
	if rep := audit.CheckPlan(forests[0], schedules[0]); !rep.Clean() {
		t.Fatalf("materialized pair fails the audit: %v", rep.Err())
	}
	if rep := audit.CheckForms(built); !rep.Clean() {
		t.Fatalf("materialized plan fails its claims: %v", rep.Err())
	}
	if !built.Materialized() {
		t.Fatal("Materialized is false after Forest and Schedule ran")
	}
}
