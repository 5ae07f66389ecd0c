package stream

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/plancache"
)

// TestDemandScanMemo pins the scan memo on the plan cache: a repeated scan
// returns the same D' with zero allocations and no schedule recomputation
// (the serving layer's heavy storage-limited path hammers one spec), and a
// purged cache recomputes the identical value.
func TestDemandScanMemo(t *testing.T) {
	g := goldenGraphs(t)[0].g
	cache := plancache.New(8)
	cfg := Config{Base: g, Mixers: 4, Storage: 4, Scheduler: SRS, Cache: cache}
	first, err := MaxSinglePassDemand(cfg, 120)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		got, err := MaxSinglePassDemand(cfg, 120)
		if err != nil {
			t.Fatal(err)
		}
		if got != first {
			t.Fatalf("memoised scan D'=%d, first scan D'=%d", got, first)
		}
	}); allocs != 0 {
		t.Fatalf("warm memoised scan allocates %.1f objects, want 0", allocs)
	}
	cache.Purge()
	fresh, err := MaxSinglePassDemand(cfg, 120)
	if err != nil {
		t.Fatal(err)
	}
	if fresh != first {
		t.Fatalf("recomputed scan D'=%d, memoised D'=%d", fresh, first)
	}
}

// TestWarmScanSurvivesChurn: a scan that keeps being asked for stays
// memoised however many colder scans arrive after it. The scan table is an
// LRU, so 4096 newer scans evict only each other; a bound that clears the
// whole table when full would drop the warm scan with them.
func TestWarmScanSurvivesChurn(t *testing.T) {
	obs.Enable(obs.Options{})
	t.Cleanup(obs.Disable)
	scheduled := func() int64 { return obs.Counter("sched.schedules") + obs.Counter("sched.schedules_cut") }

	g := goldenGraphs(t)[0].g
	cache := plancache.New(plancache.DefaultCapacity)
	warm := Config{Base: g, Mixers: 4, Storage: 4, Scheduler: SRS, Cache: cache}
	want, err := MaxSinglePassDemand(warm, 120)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4096; i++ {
		cold := Config{Base: g, Mixers: 4, Storage: 4 + i, Scheduler: SRS, Cache: cache}
		if _, err := MaxSinglePassDemand(cold, 2); err != nil {
			t.Fatal(err)
		}
		before := scheduled()
		got, err := MaxSinglePassDemand(warm, 120)
		if err != nil || got != want {
			t.Fatalf("warm scan after %d newer scans: D'=%d (err %v), want %d", i, got, err, want)
		}
		if n := scheduled() - before; n != 0 {
			t.Fatalf("warm scan recomputed (%d schedules) after %d newer scans", n, i)
		}
	}
	if n := cache.Stats().Scans; n != plancache.DefaultCapacity {
		t.Errorf("%d scans memoised, want the bound %d", n, plancache.DefaultCapacity)
	}
}

// TestNilCacheRunLeavesDefaultIdle: a storage-limited Run without a cache
// plans uncached; it neither reads nor fills the process-wide cache.
func TestNilCacheRunLeavesDefaultIdle(t *testing.T) {
	before := plancache.Default().Stats()
	if _, err := Run(Config{Base: pcrBase(t), Mixers: 3, Storage: 3, Scheduler: SRS}, 33); err != nil {
		t.Fatal(err)
	}
	if after := plancache.Default().Stats(); after != before {
		t.Errorf("plancache.Default() moved: %+v -> %+v", before, after)
	}
}
