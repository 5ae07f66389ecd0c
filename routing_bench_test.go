package dmfb

// Benchmarks for the dense routing kernel: incremental placement annealing
// at the Fig. 5 experiment's size, and the fingerprint-cached matrix against
// a cold build (EXPERIMENTS.md §E7).

import (
	"testing"

	"repro/internal/chip"
	"repro/internal/exec"
	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/ratio"
	"repro/internal/route"
	"repro/internal/sched"
)

func placementInputs(b *testing.B) (*chip.Layout, chip.Flow) {
	b.Helper()
	g, err := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	if err != nil {
		b.Fatal(err)
	}
	f, err := forest.Build(g, 20)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.SRS(f, 3)
	if err != nil {
		b.Fatal(err)
	}
	l := chip.PCRLayout()
	plan, err := exec.Execute(s, l)
	if err != nil {
		b.Fatal(err)
	}
	return l, plan.Flow
}

// BenchmarkOptimizePlacement times the incremental delta-evaluating
// annealer on the real obstacle-aware cost model and the Fig. 5 plan's
// traffic, at the Fig. 5 experiment's 600 iterations.
func BenchmarkOptimizePlacement(b *testing.B) {
	l, flow := placementInputs(b)
	matrix, err := route.MatrixFor(l)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := chip.OptimizePlacement(l, flow, matrix, 600, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransportMatrixFor measures the fingerprint cache: a warm hit
// (fingerprint + lookup) against a cold all-pairs flood.
func BenchmarkTransportMatrixFor(b *testing.B) {
	l := chip.PCRLayout()
	b.Run("cached", func(b *testing.B) {
		if _, err := route.MatrixFor(l); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := route.MatrixFor(l); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			route.PurgeMatrixCache()
			if _, err := route.MatrixFor(l); err != nil {
				b.Fatal(err)
			}
		}
	})
}
