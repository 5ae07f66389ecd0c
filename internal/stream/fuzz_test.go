package stream

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/forest"
	"repro/internal/plancache"
	"repro/internal/ratio"
	"repro/internal/sched"
)

// FuzzPlan is the planner's fuzz target. Over fuzzer-chosen ratios, base
// algorithms, demands up to 128, mixer counts 1..8, schedulers, window
// starts and storage budgets q' in 0..15 (0 is unlimited) it checks that a
// valid input builds a plan both plan audits pass (the packed CheckPacked
// and the pointer-form CheckForms), that one corruption of the plan
// (planMutations, picked by the window start) fails both, that a windowed
// schedule of that plan's forest passes the schedule audit, that Pack
// inverts Materialize on the packed forest, and that no input panics.
// Invalid ratios are rejected by the parser and base builders; non-positive
// demands must fail with forest.ErrBadDemand. Under a storage budget the
// multi-pass plan must match a direct reference built from single-pass
// plans (checkStoragePlan).
func FuzzPlan(f *testing.F) {
	seeds := []struct {
		ratio          string
		alg            uint8
		demand         int
		mixers, scheme uint8
		first          uint16
		storage        uint8
	}{
		{"2:1:1:1:1:1:9", 0, 20, 3, 1, 7, 5},
		{"26:21:2:2:3:3:199", 2, 33, 4, 1, 0, 7},
		{"128:123:5", 1, 64, 0, 0, 40, 0},
		{"1:3", 0, 1, 7, 0, 1, 1},
		{"5:3:4:4", 1, 128, 5, 1, 9999, 6},
		{"1:1", 2, 2, 1, 0, 3, 2},
		{"2:1:1:1:1:1:9", 0, 0, 3, 0, 0, 4},
		{"2:1:1:1:1:1:9", 0, -4, 3, 0, 0, 0},
		{"10:6:6:5:1:1:1:1:1", 1, 114, 2, 1, 0, 8},
		{"57:28:6:6:6:3:150", 0, 128, 2, 1, 0, 11},
		{"2:1:1:1:1:1:9", 0, 40, 0, 0, 0, 1},
	}
	for _, s := range seeds {
		f.Add(s.ratio, s.alg, s.demand, s.mixers, s.scheme, s.first, s.storage)
	}
	f.Fuzz(func(t *testing.T, rs string, alg uint8, demand int, mixers, scheme uint8, first uint16, storage uint8) {
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
		if err := auditsAgree(p); err != nil {
			t.Fatal(err)
		}
		if p.Stats.Targets < demand {
			t.Fatalf("plan emits %d of %d demanded", p.Stats.Targets, demand)
		}
		// Each corruption a fresh copy admits must fail both audits alike,
		// or only the packed audit a packed-only one.
		m := planMutations[int(first)%len(planMutations)]
		bad, err := BuildPlan(cfg, demand)
		if err != nil {
			t.Fatal(err)
		}
		if m.apply(bad) {
			if err := bothReject(bad, m.claim, m.packedOnly); err != nil {
				t.Fatalf("%s mutation: %v", m.name, err)
			}
		}

		pf := p.Packed()
		var k sched.Kernel
		from := k.MMSFrom
		if cfg.Scheduler == SRS {
			from = k.SRSFrom
		}
		start := int(first) % (len(pf.Tasks) + 1)
		if err := from(pf, cfg.Mixers, start); err != nil {
			t.Fatalf("window from task %d: %v", start, err)
		}
		if rep := audit.CheckSchedule(k.Materialize(p.Forest())); !rep.Clean() {
			t.Fatalf("window from task %d: schedule audit: %v", start, rep.Err())
		}

		pf, err = forest.BuildPacked(forest.NewPackedBuilder(g), g, demand)
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

		if q := int(storage) % 16; q > 0 {
			cfg.Storage = q
			checkStoragePlan(t, cfg, demand)
		}
	})
}

// checkStoragePlan checks Run under a storage budget against a direct
// reference. S(d) comes from the single-pass plan of d (BuildPlan, whose
// Storage is Algorithm 3's peak). D' is the largest even d <= D with
// S(d) <= q', lowered as perPassDemand lowers it until the short pass of
// D mod D' fits too; no D' means ErrStorage. The plan must use D', take
// ⌈D/D'⌉ passes and keep every pass within q'.
func checkStoragePlan(t *testing.T, cfg Config, demand int) {
	t.Helper()
	memo := map[int]int{}
	s := func(d int) int {
		if v, ok := memo[d]; ok {
			return v
		}
		p, err := BuildPlan(cfg, d)
		if err != nil {
			t.Fatalf("BuildPlan(D=%d): %v", d, err)
		}
		memo[d] = p.Storage
		return p.Storage
	}
	want := 0
	for limit := max(demand, 2); want == 0; {
		dmax := 0
		for d := 2; d <= limit; d += 2 {
			if s(d) <= cfg.Storage {
				dmax = d
			}
		}
		if dmax == 0 {
			break
		}
		if short := demand % dmax; short == 0 || s(short) <= cfg.Storage {
			want = dmax
		} else if dmax <= 2 {
			break
		} else {
			limit = dmax - 2
		}
	}

	cfg.Cache = plancache.New(16)
	res, err := Run(cfg, demand)
	if want == 0 {
		if !errors.Is(err, ErrStorage) {
			t.Fatalf("q'=%d D=%d: no pass fits, Run err = %v, want ErrStorage", cfg.Storage, demand, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("q'=%d D=%d: Run: %v (reference D'=%d)", cfg.Storage, demand, err, want)
	}
	if res.PerPassDemand != want {
		t.Fatalf("q'=%d D=%d: D'=%d, reference %d", cfg.Storage, demand, res.PerPassDemand, want)
	}
	if n := (demand + want - 1) / want; len(res.Passes) != n {
		t.Fatalf("q'=%d D=%d D'=%d: %d passes, want %d", cfg.Storage, demand, want, len(res.Passes), n)
	}
	for i, p := range res.Passes {
		if q := sched.StorageUnits(p.Plan.Schedule()); q > cfg.Storage || p.Storage != q {
			t.Fatalf("q'=%d D=%d: pass %d of %d targets uses %d storage units (reported %d)",
				cfg.Storage, demand, i+1, p.Demand, q, p.Storage)
		}
	}
}
