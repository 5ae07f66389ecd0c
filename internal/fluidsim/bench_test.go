package fluidsim

import (
	"testing"

	"repro/internal/chip"
	"repro/internal/exec"
	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/ratio"
	"repro/internal/sched"
)

func benchPlan(b *testing.B) (*exec.Plan, *chip.Layout) {
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
	return plan, l
}

// BenchmarkFluidsimReplay times the wear replay of the Fig. 5 plan (one
// Router scratch buffer set per replay).
func BenchmarkFluidsimReplay(b *testing.B) {
	plan, l := benchPlan(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Replay(plan, l); err != nil {
			b.Fatal(err)
		}
	}
}
