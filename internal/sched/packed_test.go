package sched

import (
	"math"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/obs"
	"repro/internal/protocols"
)

// TestAssignmentSize pins a slot at 8 bytes: every cached plan holds one
// per task.
func TestAssignmentSize(t *testing.T) {
	if got := unsafe.Sizeof(Assignment{}); got != 8 {
		t.Fatalf("Assignment is %d bytes, want 8", got)
	}
}

// TestKernelMaterialize checks Materialize produces a valid Schedule equal
// to the pointer-forest entry point's.
func TestKernelMaterialize(t *testing.T) {
	g, err := minmix.Build(protocols.PCR16().Ratio)
	if err != nil {
		t.Fatal(err)
	}
	pb := forest.NewPackedBuilder(g)
	pf, err := forest.BuildPacked(pb, g, 20)
	if err != nil {
		t.Fatal(err)
	}
	var k Kernel
	if err := k.SRS(pf, 4); err != nil {
		t.Fatal(err)
	}
	lf := pf.Materialize()
	s := k.Materialize(lf)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	want, err := SRS(lf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if Gantt(s) != Gantt(want) {
		t.Fatal("materialized schedule renders differently from sched.SRS")
	}
}

// TestKernelErrors checks the kernel rejects a mixer count below one and
// a window start outside the forest.
func TestKernelErrors(t *testing.T) {
	g, err := minmix.Build(protocols.PCR16().Ratio)
	if err != nil {
		t.Fatal(err)
	}
	pb := forest.NewPackedBuilder(g)
	pf, err := forest.BuildPacked(pb, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	var k Kernel
	if err := k.MMS(pf, 0); err != ErrNoMixers {
		t.Fatalf("mc=0: got %v, want ErrNoMixers", err)
	}
	if err := k.MMSFrom(pf, 2, -1); err == nil {
		t.Fatal("negative firstTask accepted")
	}
	if err := k.MMSFrom(pf, 2, len(pf.Tasks)+1); err == nil {
		t.Fatal("out-of-range firstTask accepted")
	}
}

// TestKernelWithinMatchesStorageUnits checks the storage-bounded runs
// against Algorithm 3 on the full schedule: MMSWithin and SRSWithin accept
// a budget q exactly when the materialized schedule's StorageUnits is at
// most q, and a run that fits leaves the full schedule behind.
func TestKernelWithinMatchesStorageUnits(t *testing.T) {
	g, err := minmix.Build(protocols.PCR16().Ratio)
	if err != nil {
		t.Fatal(err)
	}
	pb := forest.NewPackedBuilder(g)
	var k Kernel
	for _, d := range []int{2, 7, 20, 33, 64} {
		pf, err := forest.BuildPacked(pb, g, d)
		if err != nil {
			t.Fatal(err)
		}
		f := pf.Materialize()
		for _, mc := range []int{1, 3, 4} {
			for _, tc := range []struct {
				name   string
				full   func(*forest.Forest, int) (*Schedule, error)
				within func(*forest.PackedForest, int, int) (bool, error)
			}{{"MMS", MMS, k.MMSWithin}, {"SRS", SRS, k.SRSWithin}} {
				want, err := tc.full(f, mc)
				if err != nil {
					t.Fatal(err)
				}
				q := StorageUnits(want)
				for budget := 0; budget <= q+1; budget++ {
					fits, err := tc.within(pf, mc, budget)
					if err != nil {
						t.Fatal(err)
					}
					if fits != (q <= budget) {
						t.Errorf("D=%d %s mc=%d: within(q'=%d) = %t, StorageUnits = %d", d, tc.name, mc, budget, fits, q)
					}
					if fits && Gantt(k.Materialize(f)) != Gantt(want) {
						t.Errorf("D=%d %s mc=%d q'=%d: a run that fits differs from the full schedule", d, tc.name, mc, budget)
					}
				}
			}
		}
	}
}

// TestKernelCutThenFullRun: a run cut short leaves partial slots and queues
// behind. The same kernel's next full run must still produce exactly the
// cycles and assignments of a fresh kernel, on the forest it was cut on
// and on a smaller one.
func TestKernelCutThenFullRun(t *testing.T) {
	g, err := minmix.Build(protocols.PCR16().Ratio)
	if err != nil {
		t.Fatal(err)
	}
	big, err := forest.BuildPacked(forest.NewPackedBuilder(g), g, 64)
	if err != nil {
		t.Fatal(err)
	}
	small, err := forest.BuildPacked(forest.NewPackedBuilder(g), g, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"MMS", "SRS"} {
		for _, pf := range []*forest.PackedForest{big, small} {
			var fresh, used Kernel
			full, within := fresh.MMS, used.MMSWithin
			if scheme == "SRS" {
				full, within = fresh.SRS, used.SRSWithin
			}
			if err := full(pf, 4); err != nil {
				t.Fatal(err)
			}
			if fits, err := within(big, 4, 1); err != nil || fits {
				t.Fatalf("%s: within(q'=1) = %t, %v; want a cut", scheme, fits, err)
			}
			if fits, err := within(pf, 4, math.MaxInt); err != nil || !fits {
				t.Fatalf("%s: unbounded run = %t, %v", scheme, fits, err)
			}
			if used.Cycles() != fresh.Cycles() || !slices.Equal(used.Assignments(), fresh.Assignments()) {
				t.Errorf("%s D=%d: full run after a cut differs from a fresh kernel's", scheme, pf.Demand)
			}
			f := pf.Materialize()
			if Gantt(used.Materialize(f)) != Gantt(fresh.Materialize(f)) {
				t.Errorf("%s D=%d: materialized schedule after a cut differs", scheme, pf.Demand)
			}
		}
	}
}

// TestKernelCutCounter: with observability on, a completed run counts under
// sched.schedules and a run cut short by its storage budget under
// sched.schedules_cut only.
func TestKernelCutCounter(t *testing.T) {
	g, err := minmix.Build(protocols.PCR16().Ratio)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := forest.BuildPacked(forest.NewPackedBuilder(g), g, 20)
	if err != nil {
		t.Fatal(err)
	}
	obs.Enable(obs.Options{})
	defer obs.Disable()
	var k Kernel
	if fits, err := k.SRSWithin(pf, 4, 1); err != nil || fits {
		t.Fatalf("SRSWithin(q'=1) = %t, %v; want a cut", fits, err)
	}
	if err := k.SRS(pf, 4); err != nil {
		t.Fatal(err)
	}
	if fits, err := k.MMSWithin(pf, 4, math.MaxInt); err != nil || !fits {
		t.Fatalf("unbounded MMSWithin = %t, %v", fits, err)
	}
	if got := obs.Counter("sched.schedules_cut"); got != 1 {
		t.Errorf("sched.schedules_cut = %d, want 1", got)
	}
	if got := obs.Counter("sched.schedules"); got != 2 {
		t.Errorf("sched.schedules = %d, want 2", got)
	}
}

// TestKernelZeroAllocSteadyState proves the tentpole's scheduling
// criterion: a warm kernel schedules without a single heap allocation, for
// both MMS and SRS, run in full and cut short under a storage budget.
func TestKernelZeroAllocSteadyState(t *testing.T) {
	g, err := minmix.Build(protocols.PCR16().Ratio)
	if err != nil {
		t.Fatal(err)
	}
	pb := forest.NewPackedBuilder(g)
	pf, err := forest.BuildPacked(pb, g, 20)
	if err != nil {
		t.Fatal(err)
	}
	var k Kernel
	for name, warm := range map[string]func(){
		"MMS": func() {
			if err := k.MMS(pf, 4); err != nil {
				t.Fatal(err)
			}
		},
		"SRS": func() {
			if err := k.SRS(pf, 4); err != nil {
				t.Fatal(err)
			}
		},
		"MMSWithin": func() {
			if fits, err := k.MMSWithin(pf, 4, 2); err != nil || fits {
				t.Fatalf("MMSWithin(q=2) = %t, %v; want a cut", fits, err)
			}
		},
		"SRSWithin": func() {
			if fits, err := k.SRSWithin(pf, 4, 2); err != nil || fits {
				t.Fatalf("SRSWithin(q=2) = %t, %v; want a cut", fits, err)
			}
		},
		"PrefixWithin": func() {
			if err := k.Prefixes(pf); err != nil {
				t.Fatal(err)
			}
			for trees := pf.NumTrees(); trees >= 1; trees-- {
				if _, err := k.SRSPrefixWithin(trees, 4, 2); err != nil {
					t.Fatal(err)
				}
			}
		},
	} {
		warm() // grow the scratch once
		if allocs := testing.AllocsPerRun(100, warm); allocs != 0 {
			t.Fatalf("warm %s allocates %.1f objects per run, want 0", name, allocs)
		}
	}
}

// BenchmarkKernel times the MMS and SRS kernels on the packed PCR
// master-mix forest at D=200 with 4 mixers, reusing one kernel's scratch
// (TestKernelZeroAllocSteadyState pins that a warm run allocates nothing).
func BenchmarkKernel(b *testing.B) {
	g, err := minmix.Build(protocols.PCR16().Ratio)
	if err != nil {
		b.Fatal(err)
	}
	pf, err := forest.BuildPacked(forest.NewPackedBuilder(g), g, 200)
	if err != nil {
		b.Fatal(err)
	}
	var k Kernel
	for _, tc := range []struct {
		name string
		run  func(*forest.PackedForest, int) error
	}{{"MMS", k.MMS}, {"SRS", k.SRS}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := tc.run(pf, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPrefixRunsMatchPrefixForests: a prefix run over a forest Prefixes
// readied schedules exactly as a plain run over the forest of its demand
// built from scratch, cut short or in full, whatever prefix ran before
// it: the same fit, Tc, peak and slots.
func TestPrefixRunsMatchPrefixForests(t *testing.T) {
	g, err := minmix.Build(protocols.PCR16().Ratio)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := forest.BuildPacked(forest.NewPackedBuilder(g), g, 64)
	if err != nil {
		t.Fatal(err)
	}
	var scan, plain Kernel
	for _, q := range []int{2, 4, math.MaxInt} {
		for _, s := range []struct {
			name   string
			prefix func(trees, mc, q int) (bool, error)
			within func(f *forest.PackedForest, mc, q int) (bool, error)
		}{{"MMS", scan.MMSPrefixWithin, plain.MMSWithin}, {"SRS", scan.SRSPrefixWithin, plain.SRSWithin}} {
			if err := scan.Prefixes(pf); err != nil {
				t.Fatal(err)
			}
			for _, trees := range []int{32, 1, 17, 32, 5, 31} {
				got, err := s.prefix(trees, 3, q)
				if err != nil {
					t.Fatal(err)
				}
				prefix, err := forest.BuildPacked(forest.NewPackedBuilder(g), g, 2*trees)
				if err != nil {
					t.Fatal(err)
				}
				want, err := s.within(prefix, 3, q)
				if err != nil {
					t.Fatal(err)
				}
				if got != want || scan.Cycles() != plain.Cycles() || scan.Peak() != plain.Peak() || !slices.Equal(scan.Assignments(), plain.Assignments()) {
					t.Fatalf("%s q=%d, %d trees: prefix run fits %t, Tc %d, peak %d; prefix forest fits %t, Tc %d, peak %d",
						s.name, q, trees, got, scan.Cycles(), scan.Peak(), want, plain.Cycles(), plain.Peak())
				}
			}
		}
	}
	if _, err := scan.MMSPrefixWithin(pf.NumTrees()+1, 3, 4); err == nil {
		t.Fatal("a prefix longer than the forest ran")
	}
	if err := scan.MMS(pf, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := scan.MMSPrefixWithin(1, 3, 4); err == nil {
		t.Fatal("a prefix ran after a plain run ended the readiness")
	}
}
