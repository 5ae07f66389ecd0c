package sched

import (
	"testing"

	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/mixgraph"
	"repro/internal/mtcs"
	"repro/internal/protocols"
	"repro/internal/ratio"
	"repro/internal/rma"
)

// packedBases returns every (protocol, algorithm) base graph the paper
// evaluates, for golden sweeps.
func packedBases(t *testing.T) []*mixgraph.Graph {
	t.Helper()
	var out []*mixgraph.Graph
	ratios := []ratio.Ratio{protocols.PCR16().Ratio}
	for _, p := range protocols.Table2() {
		ratios = append(ratios, p.Ratio)
	}
	for _, r := range ratios {
		for name, build := range map[string]func(ratio.Ratio) (*mixgraph.Graph, error){
			"MM": minmix.Build, "RMA": rma.Build, "MTCS": mtcs.Build,
		} {
			g, err := build(r)
			if err != nil {
				t.Fatalf("%s(%v): %v", name, r, err)
			}
			out = append(out, g)
		}
	}
	return out
}

// schedulesEqual asserts the kernel's last run matches a legacy schedule
// slot for slot.
func schedulesEqual(t *testing.T, k *Kernel, want *Schedule) {
	t.Helper()
	if k.Cycles() != want.Cycles {
		t.Fatalf("%s: packed Tc=%d, legacy Tc=%d", want.Algorithm, k.Cycles(), want.Cycles)
	}
	got := k.Assignments()
	if len(got) != len(want.Slots) {
		t.Fatalf("%s: %d slots, want %d", want.Algorithm, len(got), len(want.Slots))
	}
	for i := range want.Slots {
		if got[i] != want.Slots[i] {
			t.Fatalf("%s: task %d at %+v, legacy %+v", want.Algorithm, i, got[i], want.Slots[i])
		}
	}
}

// TestKernelGoldenEquivalence certifies the packed scheduler against the
// legacy one: identical Slots and Cycles for every protocol x algorithm,
// a sweep of demands and mixer counts, for both MMS and SRS; and identical
// peak storage, including on the demand scan's incrementally grown forests.
func TestKernelGoldenEquivalence(t *testing.T) {
	var k Kernel
	pb := &forest.PackedBuilder{}
	for _, g := range packedBases(t) {
		for _, demand := range []int{1, 2, 5, 8, 20, 33} {
			lf, err := forest.Build(g, demand)
			if err != nil {
				t.Fatal(err)
			}
			pf, err := forest.BuildPacked(pb, g, demand)
			if err != nil {
				t.Fatal(err)
			}
			for _, mc := range []int{1, 2, 3, 4, 7} {
				want, err := MMS(lf, mc)
				if err != nil {
					t.Fatal(err)
				}
				if err := k.MMS(pf, mc); err != nil {
					t.Fatal(err)
				}
				schedulesEqual(t, &k, want)
				if got, wantQ := k.StorageUnits(pf), StorageUnits(want); got != wantQ {
					t.Fatalf("MMS storage %d, legacy %d", got, wantQ)
				}

				want, err = SRS(lf, mc)
				if err != nil {
					t.Fatal(err)
				}
				if err := k.SRS(pf, mc); err != nil {
					t.Fatal(err)
				}
				schedulesEqual(t, &k, want)
				if got, wantQ := k.StorageUnits(pf), StorageUnits(want); got != wantQ {
					t.Fatalf("SRS storage %d, legacy %d", got, wantQ)
				}
			}
		}
		// The storage demand scan grows one forest a tree at a time and
		// counts storage after every step; each step must agree with a
		// legacy forest built from scratch for that demand.
		pb.Reset(g)
		for demand := 2; demand <= 64; demand += 2 {
			pb.AddTree()
			pf := pb.Forest()
			lf, err := forest.Build(g, demand)
			if err != nil {
				t.Fatal(err)
			}
			for _, mc := range []int{1, 3, 4} {
				want, err := MMS(lf, mc)
				if err != nil {
					t.Fatal(err)
				}
				if err := k.MMS(pf, mc); err != nil {
					t.Fatal(err)
				}
				if got, wantQ := k.StorageUnits(pf), StorageUnits(want); got != wantQ {
					t.Fatalf("grown D=%d mc=%d: MMS storage %d, legacy %d", demand, mc, got, wantQ)
				}
				if want, err = SRS(lf, mc); err != nil {
					t.Fatal(err)
				}
				if err := k.SRS(pf, mc); err != nil {
					t.Fatal(err)
				}
				if got, wantQ := k.StorageUnits(pf), StorageUnits(want); got != wantQ {
					t.Fatalf("grown D=%d mc=%d: SRS storage %d, legacy %d", demand, mc, got, wantQ)
				}
			}
		}
	}
}

// TestKernelWindowedEquivalence checks the incremental MMSFrom/SRSFrom
// windows used by the pool-persistent engine.
func TestKernelWindowedEquivalence(t *testing.T) {
	g, err := minmix.Build(protocols.PCR16().Ratio)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := forest.Build(g, 20)
	if err != nil {
		t.Fatal(err)
	}
	pb := &forest.PackedBuilder{}
	pf, err := forest.BuildPacked(pb, g, 20)
	if err != nil {
		t.Fatal(err)
	}
	var k Kernel
	for _, firstTask := range []int{0, 1, 7, len(lf.Tasks) / 2, len(lf.Tasks) - 1, len(lf.Tasks)} {
		if firstTask == len(lf.Tasks) {
			continue // empty window deadlocks by construction in both paths
		}
		for _, mc := range []int{1, 3, 4} {
			want, err := MMSFrom(lf, mc, firstTask)
			if err != nil {
				t.Fatal(err)
			}
			if err := k.MMSFrom(pf, mc, firstTask); err != nil {
				t.Fatal(err)
			}
			schedulesEqual(t, &k, want)

			want, err = SRSFrom(lf, mc, firstTask)
			if err != nil {
				t.Fatal(err)
			}
			if err := k.SRSFrom(pf, mc, firstTask); err != nil {
				t.Fatal(err)
			}
			schedulesEqual(t, &k, want)
		}
	}
}

// TestKernelHuMatchesOMS checks the packed Hu rule against legacy OMS.
func TestKernelHuMatchesOMS(t *testing.T) {
	var k Kernel
	pb := &forest.PackedBuilder{}
	for _, g := range packedBases(t) {
		for _, mc := range []int{1, 2, 3, 5} {
			want, err := OMS(g, mc)
			if err != nil {
				t.Fatal(err)
			}
			pf, err := forest.BuildPacked(pb, g, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := k.Hu(pf, mc); err != nil {
				t.Fatal(err)
			}
			schedulesEqual(t, &k, want)
		}
	}
}

// TestKernelMaterialize checks Materialize produces a valid legacy Schedule
// equal to the direct legacy run.
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
		t.Fatal("materialized schedule renders differently from legacy")
	}
}

// TestKernelErrors checks the packed engine rejects what the legacy one
// rejects.
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
