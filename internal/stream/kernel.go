package stream

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/audit"
	"repro/internal/forest"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/sched"
)

// planKernel bundles the packed forest builder and the scheduling kernel
// that together compute one single-pass plan without steady-state
// allocations. Kernels are pooled: a plan-cache miss borrows one, grows the
// packed forest in its arenas, schedules it in the kernel's scratch, and
// only then copies the result into the immutable slab that enters the
// cache. The pooled arenas persist, so repeated misses of similar size
// allocate only the cached slabs themselves.
type planKernel struct {
	builder forest.PackedBuilder
	sched   sched.Kernel
}

var kernelPool = sync.Pool{New: func() any { return new(planKernel) }}

// schedulePacked runs the configured scheme over a packed forest under a
// budget of q storage units: it stops at the first cycle that holds more
// than q droplets in storage and reports whether the schedule stayed within
// q to its end (sched.Kernel.MMSWithin). BuildPlan passes an unlimited
// budget; the demand scan passes q'.
func (k *planKernel) schedulePacked(s Scheduler, f *forest.PackedForest, mc, q int) (bool, error) {
	switch s {
	case MMS:
		return k.sched.MMSWithin(f, mc, q)
	case SRS:
		return k.sched.SRSWithin(f, mc, q)
	default:
		return false, fmt.Errorf("%w %d", ErrUnknownScheduler, int(s))
	}
}

// BuildPlan computes the single-pass plan for demand d — packed forest,
// slot table, stats and peak storage — and copies it out of the pooled
// arenas into the slab the plan caches hold (plancache.NewPacked). It is
// the one single-target plan builder: stream's own cache misses, the
// runtime's degraded replans, the experiment sweeps and the report all call
// it, directly or through Plan. The packed audit runs on the slab, so
// exactly what a cache receives is what was verified; nothing is
// materialized until a caller asks for pointer forms. BuildPlan bypasses
// every cache and ignores cfg.Storage; the frozen fixtures of
// TestPlannerGolden pin its output.
func BuildPlan(cfg Config, d int) (*plancache.Plan, error) {
	k := kernelPool.Get().(*planKernel)
	defer kernelPool.Put(k)
	pf, err := forest.BuildPacked(&k.builder, cfg.Base, d)
	if err != nil {
		return nil, err
	}
	if _, err := k.schedulePacked(cfg.Scheduler, pf, cfg.Mixers, math.MaxInt); err != nil {
		return nil, err
	}
	p := plancache.NewPacked(pf, k.sched.Assignments(), cfg.Scheduler.String(), cfg.Mixers, k.sched.Cycles(), k.sched.Peak())
	// Every plan entering a cache passes the plan-level audit first: a
	// structurally broken forest or a storage-profile mismatch is a planner
	// bug and must never be cached, reused, or executed.
	if rep := audit.CheckPacked(p); !rep.Clean() {
		obs.Add("audit.violations", int64(len(rep.Violations)))
		return nil, fmt.Errorf("stream: plan audit: %w", rep.Err())
	}
	return p, nil
}
