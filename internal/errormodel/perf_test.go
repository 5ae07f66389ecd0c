package errormodel

import (
	"testing"

	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/ratio"
)

func benchForest(b *testing.B) *forest.Forest {
	b.Helper()
	g, err := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	if err != nil {
		b.Fatalf("minmix.Build: %v", err)
	}
	f, err := forest.Build(g, 16)
	if err != nil {
		b.Fatalf("forest.Build: %v", err)
	}
	return f
}

// BenchmarkAnalyze measures the per-task analysis of a D=16 PCR forest:
// the premise check over every task, the graph pass and the copy of each
// task's node interval. Per-task reports, E13 and the Monte-Carlo
// comparison run it; no serving path does.
func BenchmarkAnalyze(b *testing.B) {
	f := benchForest(b)
	p := Params{SplitImbalance: 0.05, DispenseError: 0.02}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(f, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeGraph measures the one pass over base nodes that the
// error-aware planner runs per candidate and /v1/execute runs per plan:
// the same PCR graph at any demand.
func BenchmarkAnalyzeGraph(b *testing.B) {
	f := benchForest(b)
	p := Params{SplitImbalance: 0.05, DispenseError: 0.02}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeGraph(f.Base, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulate measures one Monte-Carlo trial batch for scale against
// the analytic path it validates.
func BenchmarkSimulate(b *testing.B) {
	f := benchForest(b)
	p := Params{SplitImbalance: 0.05, DispenseError: 0.02, Trials: 100, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(f, p); err != nil {
			b.Fatal(err)
		}
	}
}
