package stream

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/forest"
	"repro/internal/ratio"
	"repro/internal/sched"
)

// FuzzPlan is the planner's oracle-free fuzz target. Over fuzzer-chosen
// ratios, base algorithms, demands up to 128, mixer counts 1..8, schedulers
// and window starts it checks that a valid input builds a plan passing the
// full plan audit, that a windowed schedule of that plan's forest passes
// the schedule audit, that Pack inverts Materialize on the packed forest,
// and that no input panics. Invalid ratios are rejected by the parser and
// base builders; non-positive demands must fail with forest.ErrBadDemand.
func FuzzPlan(f *testing.F) {
	seeds := []struct {
		ratio          string
		alg            uint8
		demand         int
		mixers, scheme uint8
		first          uint16
	}{
		{"2:1:1:1:1:1:9", 0, 20, 3, 1, 7},
		{"26:21:2:2:3:3:199", 2, 33, 4, 1, 0},
		{"128:123:5", 1, 64, 0, 0, 40},
		{"1:3", 0, 1, 7, 0, 1},
		{"5:3:4:4", 1, 128, 5, 1, 9999},
		{"1:1", 2, 2, 1, 0, 3},
		{"2:1:1:1:1:1:9", 0, 0, 3, 0, 0},
		{"2:1:1:1:1:1:9", 0, -4, 3, 0, 0},
	}
	for _, s := range seeds {
		f.Add(s.ratio, s.alg, s.demand, s.mixers, s.scheme, s.first)
	}
	f.Fuzz(func(t *testing.T, rs string, alg uint8, demand int, mixers, scheme uint8, first uint16) {
		r, err := ratio.Parse(rs)
		if err != nil || r.Sum() > 1024 || demand > 128 {
			return
		}
		algo := goldenAlgorithms[int(alg)%len(goldenAlgorithms)]
		g, err := algo.build(r)
		if err != nil {
			return // e.g. a single-fluid "mixture"
		}
		cfg := Config{Base: g, Mixers: 1 + int(mixers)%8, Scheduler: goldenSchemes[int(scheme)%len(goldenSchemes)]}
		p, err := BuildPlan(cfg, demand)
		if demand <= 0 {
			if !errors.Is(err, forest.ErrBadDemand) {
				t.Fatalf("BuildPlan(D=%d) err = %v, want ErrBadDemand", demand, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s(%s) D=%d %s mc=%d: %v", algo.name, rs, demand, cfg.Scheduler, cfg.Mixers, err)
		}
		if rep := audit.CheckPlan(p.Forest, p.Schedule); !rep.Clean() {
			t.Fatalf("plan audit: %v", rep.Err())
		}
		if p.Stats.Targets < demand {
			t.Fatalf("plan emits %d of %d demanded", p.Stats.Targets, demand)
		}

		from := sched.MMSFrom
		if cfg.Scheduler == SRS {
			from = sched.SRSFrom
		}
		start := int(first) % (len(p.Forest.Tasks) + 1)
		s, err := from(p.Forest, cfg.Mixers, start)
		if err != nil {
			t.Fatalf("window from task %d: %v", start, err)
		}
		if rep := audit.CheckSchedule(s); !rep.Clean() {
			t.Fatalf("window from task %d: schedule audit: %v", start, rep.Err())
		}

		pf, err := forest.BuildPacked(forest.NewPackedBuilder(g), g, demand)
		if err != nil {
			t.Fatal(err)
		}
		back, err := forest.Pack(pf.Materialize())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, pf) {
			t.Fatalf("Pack(Materialize(pf)) differs from pf for %s(%s) D=%d", algo.name, rs, demand)
		}
	})
}
