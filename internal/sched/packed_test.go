package sched

import (
	"testing"

	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/protocols"
)

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

// TestKernelZeroAllocSteadyState proves the tentpole's scheduling
// criterion: a warm kernel schedules (and counts storage) without a single
// heap allocation, for both MMS and SRS.
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
			k.StorageUnits(pf)
		},
		"SRS": func() {
			if err := k.SRS(pf, 4); err != nil {
				t.Fatal(err)
			}
			k.StorageUnits(pf)
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
