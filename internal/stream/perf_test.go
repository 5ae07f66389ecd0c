package stream

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/plancache"
	"repro/internal/ratio"
	"repro/internal/sched"
	"repro/internal/synth"
)

// TestMaxSinglePassDemandNoFullRebuilds asserts the storage-demand scan
// grows one incremental forest.Builder instead of calling forest.Build from
// scratch for every even candidate demand.
func TestMaxSinglePassDemandNoFullRebuilds(t *testing.T) {
	base := pcrBase(t)
	before := forest.BuildCount()
	d, err := MaxSinglePassDemand(Config{Base: base, Mixers: 3, Storage: 5, Scheduler: SRS}, 32)
	if err != nil {
		t.Fatalf("MaxSinglePassDemand: %v", err)
	}
	if got := forest.BuildCount() - before; got != 0 {
		t.Errorf("scan performed %d full forest builds, want 0 (incremental builder)", got)
	}
	if d < 2 || d > 32 || d%2 != 0 {
		t.Errorf("implausible D' = %d", d)
	}
}

// TestMaxSinglePassDemandMatchesBruteForce certifies the incremental scan
// against the definitionally-correct brute force: build every even demand
// from scratch, keep the largest whose schedule fits.
func TestMaxSinglePassDemandMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		ratio     string
		mixers    int
		scheduler Scheduler
	}{
		{"2:1:1:1:1:1:9", 3, SRS},
		{"2:1:1:1:1:1:9", 3, MMS},
		{"7:1:4:4", 3, SRS},
		{"7:1:4:4", 2, MMS},
	} {
		g, err := minmix.Build(ratio.MustParse(tc.ratio))
		if err != nil {
			t.Fatal(err)
		}
		for q := 1; q <= 8; q++ {
			cfg := Config{Base: g, Mixers: tc.mixers, Storage: q, Scheduler: tc.scheduler}
			brute := 0
			for d := 2; d <= 32; d += 2 {
				f, err := forest.Build(g, d)
				if err != nil {
					t.Fatal(err)
				}
				s, err := tc.scheduler.Schedule(f, tc.mixers)
				if err != nil {
					t.Fatal(err)
				}
				if sched.StorageUnits(s) <= q {
					brute = d
				}
			}
			got, err := MaxSinglePassDemand(cfg, 32)
			if err != nil {
				t.Fatalf("%s q=%d: %v", tc.ratio, q, err)
			}
			if got != brute {
				t.Errorf("%s %s mc=%d q'=%d: incremental D'=%d, brute force D'=%d",
					tc.ratio, tc.scheduler, tc.mixers, q, got, brute)
			}
		}
	}
}

// TestMaxSinglePassDemandNonMonotoneStorage pins a case where storage use is
// NOT monotone in demand (ratio 7:1:4:4, MM base, 3 mixers, SRS: q over
// d=2..32 is 1,2,3,4,5,6,7,7,6,6,7,8,10,10,11,12). With q'=6 the demands
// 14 and 16 overflow but 18 and 20 fit again, so the correct D' is 20 — a
// first-failure scan would wrongly stop at 12.
func TestMaxSinglePassDemandNonMonotoneStorage(t *testing.T) {
	g, err := minmix.Build(ratio.MustParse("7:1:4:4"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Base: g, Mixers: 3, Storage: 6, Scheduler: SRS}
	// Certify the premise: q(14) > q' but q(20) <= q'.
	for _, probe := range []struct{ d, wantQ int }{{12, 6}, {14, 7}, {16, 7}, {18, 6}, {20, 6}, {22, 7}} {
		f, err := forest.Build(g, probe.d)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.SRS(f, 3)
		if err != nil {
			t.Fatal(err)
		}
		if q := sched.StorageUnits(s); q != probe.wantQ {
			t.Fatalf("premise shifted: q(D=%d) = %d, want %d", probe.d, q, probe.wantQ)
		}
	}
	d, err := MaxSinglePassDemand(cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	if d != 20 {
		t.Errorf("non-monotone case: D' = %d, want 20 (the largest fit past the q overflow at 14-16)", d)
	}
}

// TestRunReusesFullPassPlan asserts that a multi-pass Run plans the repeated
// full-size pass once: every full pass shares one *sched.Schedule, and the
// whole Run performs at most two from-scratch forest builds (the full pass
// and, when the demand is not a multiple of D', the final short pass).
func TestRunReusesFullPassPlan(t *testing.T) {
	base := pcrBase(t)
	before := forest.BuildCount()
	res, err := Run(Config{Base: base, Mixers: 3, Storage: 3, Scheduler: SRS}, 32)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Passes) < 2 {
		t.Fatalf("test premise: want a multi-pass plan, got %d passes", len(res.Passes))
	}
	if builds := forest.BuildCount() - before; builds > 2 {
		t.Errorf("Run performed %d full forest builds for %d passes, want <= 2", builds, len(res.Passes))
	}
	full := res.Passes[0]
	for i, p := range res.Passes {
		if p.Demand == full.Demand && p.Plan != full.Plan {
			t.Errorf("pass %d re-planned the full-size pass instead of reusing it", i)
		}
	}
}

// TestRunCacheHitSkipsAllBuilds asserts the plan-cache wiring: re-planning
// an identical demand performs zero forest builds.
func TestRunCacheHitSkipsAllBuilds(t *testing.T) {
	base := pcrBase(t)
	cfg := Config{Base: base, Mixers: 3, Storage: 5, Scheduler: SRS, Cache: plancache.New(8)}
	first, err := Run(cfg, 32)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	before := forest.BuildCount()
	second, err := Run(cfg, 32)
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if builds := forest.BuildCount() - before; builds != 0 {
		t.Errorf("identical re-plan performed %d forest builds, want 0 (cache hit)", builds)
	}
	if first.TotalCycles != second.TotalCycles || first.TotalWaste != second.TotalWaste ||
		first.TotalInputs != second.TotalInputs || len(first.Passes) != len(second.Passes) {
		t.Errorf("cached plan differs: %+v vs %+v", first, second)
	}
}

// BenchmarkColdDemandScan times cold D' scans. Each scan reads a plan cache
// of its own, purged every iteration, so each iteration grows the forest to
// the limit and schedules its prefixes from the limit down to D' (each
// candidate over q' cut at its first cycle over it); TestDemandScanMemo
// pins the warm, memoised scan at zero allocations. The PCR case scans the PCR master-mix up to D=200
// (SRS, 4 mixers, q'=4). The dataset cases model the storage-limited
// requests of the serving mix: MMS and SRS at q' = 6 and 8 up to D=128 on
// Mlb mixers, one scan per iteration, cycling through a fixed sample of
// PaperDataset ratios (every 257th, base algorithms MM, RMA and MTCS in
// turn).
func BenchmarkColdDemandScan(b *testing.B) {
	g, err := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("PCR/SRS/mc=4/q=4", func(b *testing.B) {
		benchScans(b, []Config{{Base: g, Mixers: 4, Storage: 4, Scheduler: SRS}}, 200)
	})

	var sample []Config
	for i, r := range synth.PaperDataset() {
		if i%257 != 0 {
			continue
		}
		mm, err := minmix.Build(r)
		if err != nil {
			b.Fatal(err)
		}
		g, err := goldenAlgorithms[len(sample)%len(goldenAlgorithms)].build(r)
		if err != nil {
			b.Fatal(err)
		}
		sample = append(sample, Config{Base: g, Mixers: sched.Mlb(mm)})
	}
	for _, s := range goldenSchemes {
		for _, q := range []int{6, 8} {
			cfgs := slices.Clone(sample)
			for i := range cfgs {
				cfgs[i].Storage, cfgs[i].Scheduler = q, s
			}
			b.Run(fmt.Sprintf("dataset/%s/q=%d", s, q), func(b *testing.B) { benchScans(b, cfgs, 128) })
		}
	}
}

// benchScans runs one cold scan up to limit per iteration, cycling through
// cfgs, each against an empty plan cache of its own.
func benchScans(b *testing.B, cfgs []Config, limit int) {
	for i := range cfgs {
		cfgs[i].Cache = plancache.New(1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := cfgs[i%len(cfgs)]
		cfg.Cache.Purge()
		if _, err := MaxSinglePassDemand(cfg, limit); err != nil {
			b.Fatal(err)
		}
	}
}
