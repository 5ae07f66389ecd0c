package sched

import (
	"testing"

	"repro/internal/forest"
)

// TestScheduleDeterminism schedules the same forest 100 times with each
// scheme and asserts the rendered Gantt chart is byte-identical every time.
// Every queue policy breaks its final tie on the unique task ID, the
// cycle-stepped engine iterates slices only (no map ranging), and mixers are
// assigned in batch order — so there is exactly one legal output per
// (forest, scheme, Mc) triple. A single differing byte here means a
// nondeterministic tie-break crept back in.
func TestScheduleDeterminism(t *testing.T) {
	const runs = 100
	schemes := []struct {
		name  string
		build func(f *forest.Forest, mc int) (*Schedule, error)
	}{
		{"MMS", MMS},
		{"SRS", SRS},
		{"MMSFrom", func(f *forest.Forest, mc int) (*Schedule, error) { return window((*Kernel).MMSFrom, f, mc) }},
		{"SRSFrom", func(f *forest.Forest, mc int) (*Schedule, error) { return window((*Kernel).SRSFrom, f, mc) }},
	}
	for _, sc := range schemes {
		t.Run(sc.name, func(t *testing.T) {
			want := ""
			for i := 0; i < runs; i++ {
				// A fresh forest each run: determinism must hold across
				// independently built (identical) inputs, not just across
				// re-walks of one shared object graph.
				f := pcrForest(t, 20)
				s, err := sc.build(f, 3)
				if err != nil {
					t.Fatalf("run %d: %s: %v", i, sc.name, err)
				}
				g := Gantt(s)
				if i == 0 {
					want = g
					continue
				}
				if g != want {
					t.Fatalf("run %d: %s Gantt differs from run 0:\n--- run 0 ---\n%s\n--- run %d ---\n%s",
						i, sc.name, want, i, g)
				}
			}
		})
	}
}

// window schedules the whole of f as one kernel window (first task 0) on a
// fresh kernel.
func window(from func(*Kernel, *forest.PackedForest, int, int) error, f *forest.Forest, mc int) (*Schedule, error) {
	pf, err := forest.Pack(f)
	if err != nil {
		return nil, err
	}
	var k Kernel
	if err := from(&k, pf, mc, 0); err != nil {
		return nil, err
	}
	return k.Materialize(f), nil
}
