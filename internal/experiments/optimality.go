package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/ratio"
	"repro/internal/sched"
	"repro/internal/stream"
)

// E5 measures the optimality gap of the paper's list schedulers against the
// exact (bitmask-DP) scheduler on small random forests — the rigour the
// paper's own evaluation cannot provide, since exact scheduling is
// exponential.

// E5Result aggregates the gap statistics for one scheduler.
type E5Result struct {
	Scheduler string
	// Instances is the number of (forest, Mc) pairs measured.
	Instances int
	// Optimal counts instances where the scheduler hit the exact optimum.
	Optimal int
	// TotalGap sums the extra cycles over optimal; MaxGap is the worst.
	TotalGap int
	MaxGap   int
}

// OptimalRate returns the fraction of instances scheduled optimally.
func (r E5Result) OptimalRate() float64 {
	if r.Instances == 0 {
		return 0
	}
	return float64(r.Optimal) / float64(r.Instances)
}

// E5OptimalityGap samples small random MDST instances (ratio-sum 16,
// demands 2..6, 1..4 mixers) and measures MMS and SRS against Exact.
// Deterministic for a fixed seed.
func E5OptimalityGap(samples int, seed int64) ([]E5Result, error) {
	rng := rand.New(rand.NewSource(seed))
	results := map[string]*E5Result{
		"MMS": {Scheduler: "MMS"},
		"SRS": {Scheduler: "SRS"},
	}
	collected := 0
	for tries := 0; collected < samples && tries < samples*20; tries++ {
		n := 2 + rng.Intn(5)
		parts := make([]int64, n)
		for i := range parts {
			parts[i] = 1
		}
		for rest := 16 - n; rest > 0; rest-- {
			parts[rng.Intn(n)]++
		}
		r, err := ratio.New(parts...)
		if err != nil {
			continue
		}
		base, err := minmix.Build(r)
		if err != nil {
			continue
		}
		f, err := forest.Build(base, 2+2*rng.Intn(3))
		if err != nil || len(f.Tasks) > sched.MaxExactTasks {
			continue
		}
		mc := 1 + rng.Intn(4)
		opt, err := sched.Exact(f, mc)
		if err != nil {
			continue
		}
		for name, scheduler := range map[string]stream.Scheduler{"MMS": stream.MMS, "SRS": stream.SRS} {
			s, err := scheduler.Schedule(f, mc)
			if err != nil {
				return nil, err
			}
			res := results[name]
			res.Instances++
			gap := s.Cycles - opt.Cycles
			if gap < 0 {
				return nil, fmt.Errorf("experiments: %s beat the exact optimum (%d < %d)", name, s.Cycles, opt.Cycles)
			}
			if gap == 0 {
				res.Optimal++
			}
			res.TotalGap += gap
			if gap > res.MaxGap {
				res.MaxGap = gap
			}
		}
		collected++
	}
	if collected == 0 {
		return nil, fmt.Errorf("experiments: no instances generated")
	}
	return []E5Result{*results["MMS"], *results["SRS"]}, nil
}

// FormatE5 renders the gap table.
func FormatE5(rows []E5Result) string {
	var b strings.Builder
	b.WriteString("E5: list-scheduler optimality gap vs exact DP (random small forests)\n")
	fmt.Fprintf(&b, "%-6s %10s %10s %10s %8s\n", "sched", "instances", "optimal", "avg gap", "max gap")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %10d %9.1f%% %10.3f %8d\n",
			r.Scheduler, r.Instances, 100*r.OptimalRate(),
			float64(r.TotalGap)/float64(max(1, r.Instances)), r.MaxGap)
	}
	return b.String()
}
