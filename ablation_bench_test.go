package dmfb

// Ablation benchmarks: each one isolates a design choice of the paper (or of
// this reproduction) and reports the metric it buys as a custom benchmark
// metric, so `go test -bench=Ablation -benchmem` doubles as an ablation
// table. Metrics are ratios (baseline / variant), so higher is better for
// the paper's design choice.

import (
	"testing"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/mtcs"
	"repro/internal/ratio"
	"repro/internal/route"
	"repro/internal/sched"
	"repro/internal/stream"
)

var ablationRatio = ratio.MustParse("26:21:2:2:3:3:199") // Ex.1

// BenchmarkAblationForestVsRepeated isolates the paper's core idea: the
// mixing forest against ⌈D/2⌉ repeated tree passes, on input droplets and
// cycles (D=32).
func BenchmarkAblationForestVsRepeated(b *testing.B) {
	var inputRatio, cycleRatio float64
	for i := 0; i < b.N; i++ {
		base, err := minmix.Build(ablationRatio)
		if err != nil {
			b.Fatal(err)
		}
		mc := sched.Mlb(base)
		f, err := forest.Build(base, 32)
		if err != nil {
			b.Fatal(err)
		}
		s, err := sched.MMS(f, mc)
		if err != nil {
			b.Fatal(err)
		}
		baseline, err := core.Baseline(core.MM, ablationRatio, mc, 32)
		if err != nil {
			b.Fatal(err)
		}
		inputRatio = float64(baseline.Inputs) / float64(f.Stats().InputTotal)
		cycleRatio = float64(baseline.Cycles) / float64(s.Cycles)
	}
	b.ReportMetric(inputRatio, "inputs-saved-x")
	b.ReportMetric(cycleRatio, "cycles-saved-x")
}

// BenchmarkAblationSRSQueuePolicy isolates SRS's two-queue priority design
// against plain MMS on storage units (PCR forest, D=32, 3 mixers).
func BenchmarkAblationSRSQueuePolicy(b *testing.B) {
	base, err := minmix.Build(pcrRatio)
	if err != nil {
		b.Fatal(err)
	}
	f, err := forest.Build(base, 32)
	if err != nil {
		b.Fatal(err)
	}
	var qRatio, tcPenalty float64
	for i := 0; i < b.N; i++ {
		mms, err := sched.MMS(f, 3)
		if err != nil {
			b.Fatal(err)
		}
		srs, err := sched.SRS(f, 3)
		if err != nil {
			b.Fatal(err)
		}
		qRatio = float64(sched.StorageUnits(mms)) / float64(sched.StorageUnits(srs))
		tcPenalty = float64(srs.Cycles) / float64(mms.Cycles)
	}
	b.ReportMetric(qRatio, "storage-saved-x")
	b.ReportMetric(tcPenalty, "tc-penalty-x")
}

// BenchmarkAblationMTCSSharing isolates common-subtree sharing: MTCS inputs
// against MM inputs on Ex.1.
func BenchmarkAblationMTCSSharing(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		mm, err := minmix.Build(ablationRatio)
		if err != nil {
			b.Fatal(err)
		}
		shared, err := mtcs.Build(ablationRatio)
		if err != nil {
			b.Fatal(err)
		}
		saved = float64(mm.Stats().InputTotal) / float64(shared.Stats().InputTotal)
	}
	b.ReportMetric(saved, "inputs-saved-x")
}

// BenchmarkAblationPlacement isolates the simulated-annealing placer: flow
// cost of the PCR floorplan before and after optimization.
func BenchmarkAblationPlacement(b *testing.B) {
	base, _ := minmix.Build(pcrRatio)
	f, _ := forest.Build(base, 20)
	s, err := sched.SRS(f, 3)
	if err != nil {
		b.Fatal(err)
	}
	layout := chip.PCRLayout()
	plan, err := exec.Execute(s, layout)
	if err != nil {
		b.Fatal(err)
	}
	var improvement float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrix, err := route.MatrixFor(layout)
		if err != nil {
			b.Fatal(err)
		}
		before := chip.PlacementCost(layout, plan.Flow, matrix)
		_, after, err := chip.OptimizePlacement(layout, plan.Flow, matrix, 400, 1)
		if err != nil {
			b.Fatal(err)
		}
		improvement = float64(before) / float64(after)
	}
	b.ReportMetric(improvement, "flow-cost-saved-x")
}

// BenchmarkAblationPersistentPool isolates the pool-persistent demand-driven
// mode: total inputs for four requests of 4 droplets, one-shot vs persisted.
func BenchmarkAblationPersistentPool(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		totals := map[bool]int64{}
		for _, persist := range []bool{false, true} {
			e, err := core.New(core.Config{Target: pcrRatio, PersistPool: persist})
			if err != nil {
				b.Fatal(err)
			}
			for r := 0; r < 4; r++ {
				batch, err := e.Request(4)
				if err != nil {
					b.Fatal(err)
				}
				totals[persist] += batch.Result.TotalInputs
			}
		}
		saved = float64(totals[false]) / float64(totals[true])
	}
	b.ReportMetric(saved, "inputs-saved-x")
}

// BenchmarkAblationStorageBudget isolates multi-pass splitting: cycles at
// q'=3 against unlimited storage (PCR, D=32, SRS).
func BenchmarkAblationStorageBudget(b *testing.B) {
	base, _ := minmix.Build(pcrRatio)
	var penalty float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		constrained, err := stream.Run(stream.Config{Base: base, Mixers: 3, Storage: 3, Scheduler: stream.SRS}, 32)
		if err != nil {
			b.Fatal(err)
		}
		free, err := stream.Run(stream.Config{Base: base, Mixers: 3, Scheduler: stream.SRS}, 32)
		if err != nil {
			b.Fatal(err)
		}
		penalty = float64(constrained.TotalCycles) / float64(free.TotalCycles)
	}
	b.ReportMetric(penalty, "cycle-penalty-x")
}
