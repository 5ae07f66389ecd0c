package experiments

import (
	"runtime"
	"testing"

	"repro/internal/plancache"
	"repro/internal/synth"
)

// withProcs sets GOMAXPROCS to n for the rest of the test.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// withSequential runs fn once under GOMAXPROCS=8, so the sweeps fan out even
// on single-core CI containers, and once under GOMAXPROCS=1, where
// parallel.Workers takes the single-goroutine path, returning both
// renderings. The plan cache is purged before each run so neither leg can
// borrow the other's work.
func withSequential(t *testing.T, fn func() string) (par, seq string) {
	t.Helper()
	withProcs(t, 8)
	plancache.Default().Purge()
	par = fn()
	runtime.GOMAXPROCS(1)
	plancache.Default().Purge()
	seq = fn()
	return par, seq
}

// TestTable2ParallelMatchesSequential asserts the parallel Table 2 sweep is
// byte-identical to the sequential one.
func TestTable2ParallelMatchesSequential(t *testing.T) {
	par, seq := withSequential(t, func() string {
		rows, err := Table2(8)
		if err != nil {
			t.Fatalf("Table2: %v", err)
		}
		return FormatTable2(rows)
	})
	if par != seq {
		t.Errorf("parallel Table 2 differs from sequential:\n--- parallel ---\n%s\n--- sequential ---\n%s", par, seq)
	}
}

// TestTable3ParallelMatchesSequential asserts the parallel population sweep
// accumulates bit-for-bit the same averages as the sequential one (the merge
// is in dataset order, so even the floating-point sums must agree exactly).
func TestTable3ParallelMatchesSequential(t *testing.T) {
	ds, err := synth.Dataset(16, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	par, seq := withSequential(t, func() string {
		tab, err := Table3Compute(ds, 8)
		if err != nil {
			t.Fatalf("Table3Compute: %v", err)
		}
		return FormatTable3(tab)
	})
	if par != seq {
		t.Errorf("parallel Table 3 differs from sequential:\n--- parallel ---\n%s\n--- sequential ---\n%s", par, seq)
	}
}

// TestFig6ParallelMatchesSequential asserts the Fig. 6 demand sweep is
// byte-identical between the parallel and sequential paths.
func TestFig6ParallelMatchesSequential(t *testing.T) {
	ds, err := synth.Dataset(16, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	par, seq := withSequential(t, func() string {
		f, err := Fig6Compute(ds, []int{2, 4, 8})
		if err != nil {
			t.Fatalf("Fig6Compute: %v", err)
		}
		return f.CSV()
	})
	if par != seq {
		t.Errorf("parallel Fig 6 differs from sequential:\n--- parallel ---\n%s\n--- sequential ---\n%s", par, seq)
	}
}

// TestFig7ParallelMatchesSequential asserts the Fig. 7 mixer sweep is
// byte-identical between the parallel and sequential paths.
func TestFig7ParallelMatchesSequential(t *testing.T) {
	par, seq := withSequential(t, func() string {
		f, err := Fig7Compute([]int{1, 2, 3, 4, 5, 6, 7, 8}, 32)
		if err != nil {
			t.Fatalf("Fig7Compute: %v", err)
		}
		return f.CSV()
	})
	if par != seq {
		t.Errorf("parallel Fig 7 differs from sequential:\n--- parallel ---\n%s\n--- sequential ---\n%s", par, seq)
	}
}

// TestTable4ParallelMatchesSequential asserts the storage-constrained
// streaming sweep is byte-identical between the parallel and sequential paths.
func TestTable4ParallelMatchesSequential(t *testing.T) {
	cfg := Table4Config{Depths: []int{4, 5}, Storages: []int{3, 5}, Demands: []int{2, 16, 32}, Mixers: 3}
	par, seq := withSequential(t, func() string {
		cells, err := Table4(cfg)
		if err != nil {
			t.Fatalf("Table4: %v", err)
		}
		return CSVTable4(cells)
	})
	if par != seq {
		t.Errorf("parallel Table 4 differs from sequential:\n--- parallel ---\n%s\n--- sequential ---\n%s", par, seq)
	}
}
