package dmfb

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§6), plus micro-benchmarks of the pipeline stages. Each
// table/figure benchmark regenerates the artefact end to end; run
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for the paper-vs-measured record.

import (
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/mtcs"
	"repro/internal/plancache"
	"repro/internal/ratio"
	"repro/internal/rma"
	"repro/internal/route"
	"repro/internal/sched"
	"repro/internal/stream"
	"repro/internal/synth"
)

// purgePlans resets the process-wide plan cache so a benchmark iteration
// measures from-scratch planning rather than cache lookups.
func purgePlans() { plancache.Default().Purge() }

// sequentially forces the single-threaded reference path for the duration of
// the benchmark (the parallel fan-out is the default): under GOMAXPROCS=1
// parallel.Workers runs every sweep on one goroutine.
func sequentially(b *testing.B) {
	prev := runtime.GOMAXPROCS(1)
	b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// BenchmarkTable2 regenerates Table 2: five protocols x nine schemes, D=32.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		purgePlans()
		rows, err := experiments.Table2(32)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkTable3 regenerates Table 3 on the L=16 population (the full
// L=32 population is exercised once by cmd/experiments; see BenchmarkTable3Full).
func BenchmarkTable3(b *testing.B) {
	ds, err := synth.Dataset(16, 2, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		purgePlans()
		if _, err := experiments.Table3Compute(ds, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Full runs the paper's full configuration on the sequential
// reference path with a cold plan cache: 6289 ratios of L=32, D=32, three
// algorithms, baseline + MMS + SRS each. Compare BenchmarkTable3FullParallel.
func BenchmarkTable3Full(b *testing.B) {
	sequentially(b)
	ds := synth.PaperDataset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		purgePlans()
		if _, err := experiments.Table3Compute(ds, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3FullParallel is BenchmarkTable3Full on the default
// GOMAXPROCS-wide fan-out (identical output, see the golden equality tests).
func BenchmarkTable3FullParallel(b *testing.B) {
	ds := synth.PaperDataset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		purgePlans()
		if _, err := experiments.Table3Compute(ds, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 regenerates the storage-constrained streaming sweep.
func BenchmarkTable4(b *testing.B) {
	cfg := experiments.DefaultTable4Config()
	for i := 0; i < b.N; i++ {
		purgePlans()
		if _, err := experiments.Table4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamSweep measures the storage-budget sweep that dominated the
// seed's Table 4 cost: stream.Run for q' = 1..8 at D = 32. Each Run scans
// candidate demands with one incremental forest builder and plans the
// repeated full-size pass once; the cache is purged per iteration so this
// measures the incremental planner itself, not cache hits.
func BenchmarkStreamSweep(b *testing.B) {
	base, err := minmix.Build(pcrRatio)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		purgePlans()
		for q := 1; q <= 8; q++ {
			cfg := stream.Config{Base: base, Mixers: 3, Storage: q, Scheduler: stream.SRS}
			if _, err := stream.Run(cfg, 32); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStreamSweepCached is BenchmarkStreamSweep against a warm plan
// cache: after the first iteration every Run is pure cache lookups.
func BenchmarkStreamSweepCached(b *testing.B) {
	base, err := minmix.Build(pcrRatio)
	if err != nil {
		b.Fatal(err)
	}
	purgePlans()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for q := 1; q <= 8; q++ {
			cfg := stream.Config{Base: base, Mixers: 3, Storage: q, Scheduler: stream.SRS}
			if _, err := stream.Run(cfg, 32); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig5Actuations regenerates the §5 chip-level comparison.
func BenchmarkFig5Actuations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig5Compute(20)
		if err != nil {
			b.Fatal(err)
		}
		if f.ForestActuations >= f.RepeatedActuations {
			b.Fatal("engine did not win")
		}
	}
}

// BenchmarkFig6 regenerates the demand sweep on the L=16 population.
func BenchmarkFig6(b *testing.B) {
	ds, err := synth.Dataset(16, 2, 6)
	if err != nil {
		b.Fatal(err)
	}
	demands := []int{1, 2, 4, 8, 16, 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		purgePlans()
		if _, err := experiments.Fig6Compute(ds, demands); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates the mixer sweep (PCR, D=32, M=1..15).
func BenchmarkFig7(b *testing.B) {
	mixers := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	for i := 0; i < b.N; i++ {
		purgePlans()
		if _, err := experiments.Fig7Compute(mixers, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Pipeline micro-benchmarks ---

var pcrRatio = ratio.MustParse("2:1:1:1:1:1:9")
var ex3Ratio = ratio.MustParse("25:5:5:5:5:13:13:25:1:159")

// BenchmarkMinMix measures base-tree construction (MM).
func BenchmarkMinMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := minmix.Build(ex3Ratio); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRMA measures base-tree construction (RMA reconstruction).
func BenchmarkRMA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := rma.Build(ex3Ratio); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMTCS measures base-DAG construction (MTCS reconstruction).
func BenchmarkMTCS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := mtcs.Build(ex3Ratio); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestBuild measures mixing-forest growth (D=64 over the
// ten-fluid Ex.3 tree).
func BenchmarkForestBuild(b *testing.B) {
	base, err := minmix.Build(ex3Ratio)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := forest.Build(base, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMMS and BenchmarkSRS measure forest scheduling (Ex.3, D=64,
// 5 mixers).
func BenchmarkMMS(b *testing.B) {
	base, _ := minmix.Build(ex3Ratio)
	f, _ := forest.Build(base, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.MMS(f, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSRS(b *testing.B) {
	base, _ := minmix.Build(ex3Ratio)
	f, _ := forest.Build(base, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.SRS(f, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorageCounting measures Algorithm 3.
func BenchmarkStorageCounting(b *testing.B) {
	base, _ := minmix.Build(ex3Ratio)
	f, _ := forest.Build(base, 64)
	s, _ := sched.SRS(f, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sched.StorageUnits(s) < 0 {
			b.Fatal("negative storage")
		}
	}
}

// BenchmarkCostMatrix measures chip routing: a cold all-pairs flood of the
// PCR floorplan's transport-cost matrix, past the fingerprint cache.
func BenchmarkCostMatrix(b *testing.B) {
	l := PCRLayout()
	for i := 0; i < b.N; i++ {
		if _, err := route.NewRouter(l).Matrix(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRequest measures the end-to-end demand-driven path with a
// cold plan cache (the seed's uncached semantics).
func BenchmarkEngineRequest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		purgePlans()
		e, err := NewEngine(Config{Target: pcrRatio, Scheduler: SRS, Storage: 5})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Request(32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRequestCached measures the same path against a warm plan
// cache: re-planning an identical demand is a lookup, not a rebuild.
func BenchmarkEngineRequestCached(b *testing.B) {
	purgePlans()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewEngine(Config{Target: pcrRatio, Scheduler: SRS, Storage: 5})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Request(32); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension micro-benchmarks ---

// BenchmarkConcurrentRouting measures the space-time A* router on the full
// D=20 PCR plan.
func BenchmarkConcurrentRouting(b *testing.B) {
	g, _ := minmix.Build(pcrRatio)
	f, _ := forest.Build(g, 20)
	s, _ := sched.SRS(f, 3)
	layout := PCRLayout()
	plan, err := Execute(s, layout)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RouteConcurrently(plan, layout); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBroadcastPins measures pin grouping on the routed PCR plan.
func BenchmarkBroadcastPins(b *testing.B) {
	g, _ := minmix.Build(pcrRatio)
	f, _ := forest.Build(g, 20)
	s, _ := sched.SRS(f, 3)
	layout := PCRLayout()
	plan, _ := Execute(s, layout)
	res, err := RouteConcurrently(plan, layout)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BroadcastPins(res, layout); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkErrorModel measures 1000-trial Monte-Carlo propagation.
func BenchmarkErrorModel(b *testing.B) {
	g, _ := minmix.Build(pcrRatio)
	f, _ := forest.Build(g, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateErrors(f, ErrorParams{SplitImbalance: 0.05, Trials: 1000, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactScheduler measures the bitmask DP on an 11-task forest.
func BenchmarkExactScheduler(b *testing.B) {
	g, _ := minmix.Build(pcrRatio)
	f, _ := forest.Build(g, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScheduleExact(f, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiTarget measures the combined dilution-pair plan.
func BenchmarkMultiTarget(b *testing.B) {
	reqs := []MultiRequest{
		{Target: MustParseRatio("3:13"), Demand: 8},
		{Target: MustParseRatio("5:11"), Demand: 8},
	}
	for i := 0; i < b.N; i++ {
		if _, err := PlanMulti(reqs, MM, 0, MMS); err != nil {
			b.Fatal(err)
		}
	}
}
