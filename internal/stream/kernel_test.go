package stream

import "testing"

// TestDemandScanMemo pins the scan memo: a repeated scan returns the same
// D' with zero allocations and no schedule recomputation (the serving
// layer's heavy storage-limited path hammers one spec), and a purged memo
// recomputes the identical value.
func TestDemandScanMemo(t *testing.T) {
	g := goldenGraphs(t)[0].g
	cfg := Config{Base: g, Mixers: 4, Storage: 4, Scheduler: SRS}
	PurgeScanMemo()
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
	PurgeScanMemo()
	fresh, err := MaxSinglePassDemand(cfg, 120)
	if err != nil {
		t.Fatal(err)
	}
	if fresh != first {
		t.Fatalf("recomputed scan D'=%d, memoised D'=%d", fresh, first)
	}
}
