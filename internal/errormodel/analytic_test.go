package errormodel

import (
	"math"
	"sync"
	"testing"

	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/mixgraph"
	"repro/internal/mtcs"
	"repro/internal/protocols"
	"repro/internal/ratio"
	"repro/internal/rma"
	"repro/internal/synth"
)

// builders is the base-algorithm grid the acceptance criterion sweeps:
// every protocol in testdata/ (the Table 2 mixtures plus the PCR16 running
// example) under MM, RMA and MTCS.
var builders = []struct {
	name  string
	build func(ratio.Ratio) (*mixgraph.Graph, error)
}{
	{"MM", minmix.Build},
	{"RMA", rma.Build},
	{"MTCS", mtcs.Build},
}

func allProtocols() []protocols.Protocol {
	return append(protocols.Table2(), protocols.PCR16())
}

func buildForest(t *testing.T, build func(ratio.Ratio) (*mixgraph.Graph, error), r ratio.Ratio, demand int) *forest.Forest {
	t.Helper()
	g, err := build(r)
	if err != nil {
		t.Fatalf("base build: %v", err)
	}
	f, err := forest.Build(g, demand)
	if err != nil {
		t.Fatalf("forest.Build: %v", err)
	}
	return f
}

// TestAnalyticDominatesMonteCarlo is the tentpole's validity check: the
// closed-form worst-case bound must dominate the sampled P95 and Max on
// every protocol, base algorithm and noise configuration — no realization
// of the Monte-Carlo model may escape the interval.
func TestAnalyticDominatesMonteCarlo(t *testing.T) {
	params := []Params{
		{SplitImbalance: 0.05},
		{SplitImbalance: 0.03, DispenseError: 0.02},
		{SplitImbalance: 0.08, DispenseError: 0.01},
		{DispenseError: 0.04},
	}
	const slack = 1e-9 // float associativity between the two propagations
	for _, proto := range allProtocols() {
		for _, b := range builders {
			f := buildForest(t, b.build, proto.Ratio, 12)
			for _, p := range params {
				p.Trials = 300
				p.Seed = 42
				rep, err := Simulate(f, p)
				if err != nil {
					t.Fatalf("%s/%s Simulate: %v", proto.Key, b.name, err)
				}
				an, err := Analyze(f, p)
				if err != nil {
					t.Fatalf("%s/%s Analyze: %v", proto.Key, b.name, err)
				}
				if an.WorstTarget+slack < rep.MaxErr {
					t.Errorf("%s/%s ι=%g δ=%g: analytic bound %g below sampled max %g",
						proto.Key, b.name, p.SplitImbalance, p.DispenseError, an.WorstTarget, rep.MaxErr)
				}
				if an.WorstTarget+slack < rep.P95Err {
					t.Errorf("%s/%s ι=%g δ=%g: analytic bound %g below sampled P95 %g",
						proto.Key, b.name, p.SplitImbalance, p.DispenseError, an.WorstTarget, rep.P95Err)
				}
				if an.ExpectedTarget > an.WorstTarget+slack {
					t.Errorf("%s/%s: expected estimate %g exceeds worst bound %g",
						proto.Key, b.name, an.ExpectedTarget, an.WorstTarget)
				}
				if an.Targets != rep.Targets {
					t.Errorf("%s/%s: analytic covers %d targets, simulation %d",
						proto.Key, b.name, an.Targets, rep.Targets)
				}
			}
		}
	}
}

// TestZeroNoiseBoundedByRounding is the satellite property test: with zero
// physical noise, both the simulated and the analytic L∞ error of every
// target stay within the paper's rounding bound 1/2^d for the base graph's
// accuracy level d, across all protocols and base algorithms.
func TestZeroNoiseBoundedByRounding(t *testing.T) {
	for _, proto := range allProtocols() {
		for _, b := range builders {
			f := buildForest(t, b.build, proto.Ratio, 10)
			bound := RoundingErrorBound(int(f.Base.Root.Level))
			rep, err := Simulate(f, Params{Trials: 20, Seed: 9})
			if err != nil {
				t.Fatalf("%s/%s Simulate: %v", proto.Key, b.name, err)
			}
			an, err := Analyze(f, Params{})
			if err != nil {
				t.Fatalf("%s/%s Analyze: %v", proto.Key, b.name, err)
			}
			if rep.MaxErr > bound {
				t.Errorf("%s/%s: zero-noise simulated error %g exceeds rounding bound %g",
					proto.Key, b.name, rep.MaxErr, bound)
			}
			if an.WorstTarget > bound {
				t.Errorf("%s/%s: zero-noise analytic bound %g exceeds rounding bound %g",
					proto.Key, b.name, an.WorstTarget, bound)
			}
			if an.VolDev != 0 {
				t.Errorf("%s/%s: zero-noise volume deviation %g", proto.Key, b.name, an.VolDev)
			}
		}
	}
}

// TestAnalyzeSingleMix pins the recurrence on the smallest forest by hand:
// one mix of two pure fluids under dispense error δ only. The mixing weight
// w ranges over [(1−δ)/2, (1+δ)/2], the input divergence is 1, so the worst
// target error is δ/2 exactly.
func TestAnalyzeSingleMix(t *testing.T) {
	f := buildForest(t, minmix.Build, ratio.MustNew(1, 1), 2)
	const delta = 0.04
	an, err := Analyze(f, Params{DispenseError: delta})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if got, want := an.WorstTarget, delta/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("single-mix worst bound = %g, want %g", got, want)
	}
	if an.ExpectedTarget <= 0 || an.ExpectedTarget >= an.WorstTarget {
		t.Errorf("expected estimate %g outside (0, %g)", an.ExpectedTarget, an.WorstTarget)
	}
	// Splits of the merged pair don't add CF error, so pure imbalance on a
	// two-fluid single mix perturbs volume but not concentration.
	an, err = Analyze(f, Params{SplitImbalance: 0.05})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if an.WorstTarget != 0 {
		t.Errorf("imbalance-only single mix has CF bound %g, want 0", an.WorstTarget)
	}
	if an.VolDev <= 0 {
		t.Errorf("imbalance-only single mix has volume deviation %g, want > 0", an.VolDev)
	}
}

func TestAnalyzeBadParams(t *testing.T) {
	f := pcrForest(t, 4)
	for _, p := range []Params{
		{SplitImbalance: -0.1},
		{SplitImbalance: 0.5},
		{DispenseError: 0.6},
	} {
		if _, err := Analyze(f, p); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
	// A multi-target forest's tasks instantiate nodes of several base
	// graphs, outside the premise of the base-graph lemma, so it refuses.
	var bases []*mixgraph.Graph
	for _, r := range []string{"1:3", "3:5"} {
		g, err := minmix.Build(ratio.MustParse(r))
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, g)
	}
	multi, err := forest.BuildMulti(bases, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(multi, Params{SplitImbalance: 0.05}); err == nil {
		t.Error("multi-target forest accepted")
	}
	if err := (Policy{Params: Params{SplitImbalance: 0.5}}).Validate(); err == nil {
		t.Error("bad policy accepted")
	}
	if err := (Policy{CycleSlack: -1}).Validate(); err == nil {
		t.Error("negative cycle slack accepted")
	}
	if err := (Policy{Params: Params{SplitImbalance: 0.05}, CycleSlack: 0.25}).Validate(); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
}

// TestAnalyzeRootMatchesAnalyzeGraph checks that AnalyzeRoot's interval is
// AnalyzeGraph's WorstTarget and ExpectedTarget bit for bit on every
// PaperDataset ratio under MM, RMA and MTCS, over the lemma's noise grid
// and a noiseless chip, and that it refuses the parameters AnalyzeGraph
// refuses.
func TestAnalyzeRootMatchesAnalyzeGraph(t *testing.T) {
	params := append([]Params{{}}, lemmaNoise...)
	graphs := 0
	for _, r := range synth.PaperDataset() {
		for _, b := range builders {
			g, err := b.build(r)
			if err != nil {
				t.Fatalf("%s %s: %v", b.name, r, err)
			}
			graphs++
			for _, p := range params {
				an, err := AnalyzeGraph(g, p)
				if err != nil {
					t.Fatalf("%s %s: AnalyzeGraph: %v", b.name, r, err)
				}
				iv, err := AnalyzeRoot(g, p)
				if err != nil {
					t.Fatalf("%s %s: AnalyzeRoot: %v", b.name, r, err)
				}
				if math.Float64bits(iv.Worst) != math.Float64bits(an.WorstTarget) ||
					math.Float64bits(iv.Expected) != math.Float64bits(an.ExpectedTarget) {
					t.Fatalf("%s %s ι=%g δ=%g: AnalyzeRoot (%v, %v), AnalyzeGraph (%v, %v)", b.name, r,
						p.SplitImbalance, p.DispenseError, iv.Worst, iv.Expected, an.WorstTarget, an.ExpectedTarget)
				}
			}
		}
	}
	g, err := minmix.Build(protocols.PCR16().Ratio)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeRoot(g, Params{SplitImbalance: 0.5}); err != ErrBadParams {
		t.Errorf("AnalyzeRoot with ι = 0.5: err = %v, want ErrBadParams", err)
	}
	t.Logf("%d graphs × %d noise settings: identical", graphs, len(params))
}

// TestHandoffOrderBias is the satellite regression test: the deterministic
// hand-off (the larger half always consumed first) produces a measurably
// different mean CF error than the randomized hand-off on a forest whose
// split halves feed asymmetric consumers (the PCR forest's waste-pool
// reuses). The physical executor gives no ordering guarantee, so a
// systematic volume/subtree correlation is a modeling bias.
func TestHandoffOrderBias(t *testing.T) {
	f := pcrForest(t, 16)
	base := Params{SplitImbalance: 0.08, Trials: 6000, Seed: 17}
	ordered := base
	ordered.OrderedHandoff = true
	repOrdered, err := Simulate(f, ordered)
	if err != nil {
		t.Fatalf("Simulate(ordered): %v", err)
	}
	repRandom, err := Simulate(f, base)
	if err != nil {
		t.Fatalf("Simulate(randomized): %v", err)
	}
	shift := math.Abs(repOrdered.MeanErr - repRandom.MeanErr)
	rel := shift / repRandom.MeanErr
	t.Logf("mean CF error: ordered %.6f, randomized %.6f (shift %.2f%%)",
		repOrdered.MeanErr, repRandom.MeanErr, 100*rel)
	if rel < 0.005 {
		t.Errorf("hand-off order shifted mean error by only %.4f%% — bias regression lost its signal", 100*rel)
	}
	// Both modes stay inside the analytic envelope.
	an, err := Analyze(f, base)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if an.WorstTarget+1e-9 < repOrdered.MaxErr || an.WorstTarget+1e-9 < repRandom.MaxErr {
		t.Errorf("analytic bound %g below sampled max (ordered %g, randomized %g)",
			an.WorstTarget, repOrdered.MaxErr, repRandom.MaxErr)
	}
}

// TestNearestRankPercentile pins the P95 estimator on tiny samples — the
// old truncating index n·0.95 read the max (or worse) on small n.
func TestNearestRankPercentile(t *testing.T) {
	cases := []struct {
		name   string
		sorted []float64
		want   float64
	}{
		{"one sample", []float64{0.3}, 0.3},
		{"two samples", []float64{0.1, 0.9}, 0.9},
		{"twenty samples", seq(20), 19}, // rank ⌈0.95·20⌉ = 19 → 19th smallest, not the max
		{"hundred samples", seq(100), 95},
		{"empty", nil, 0},
	}
	for _, c := range cases {
		if got := nearestRank(c.sorted, 0.95); got != c.want {
			t.Errorf("%s: nearestRank = %g, want %g", c.name, got, c.want)
		}
	}
	if got := nearestRank(seq(20), 0); got != 1 {
		t.Errorf("q=0 clamps to min, got %g", got)
	}
	if got := nearestRank(seq(20), 1); got != 20 {
		t.Errorf("q=1 is the max, got %g", got)
	}
}

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

// TestSimulateEndToEndSmallSamples drives the P95 guard through Simulate
// itself at the smallest possible sample counts (a single-target-pair tree
// at 1 trial yields 2 samples; 10 trials yield 20).
func TestSimulateEndToEndSmallSamples(t *testing.T) {
	f := buildForest(t, minmix.Build, ratio.MustNew(1, 1), 2)
	for _, trials := range []int{1, 10} {
		rep, err := Simulate(f, Params{SplitImbalance: 0.05, DispenseError: 0.05, Trials: trials, Seed: 5})
		if err != nil {
			t.Fatalf("Simulate(%d trials): %v", trials, err)
		}
		if rep.P95Err > rep.MaxErr {
			t.Errorf("%d trials: P95 %g exceeds max %g", trials, rep.P95Err, rep.MaxErr)
		}
		if rep.P95Err < rep.MeanErr && trials == 1 {
			t.Errorf("1 trial: P95 %g below mean %g on a 2-sample report", rep.P95Err, rep.MeanErr)
		}
	}
}

// TestConcurrentSimulateAndAnalyze exercises the package under the race
// detector (Makefile CONCURRENT_PKGS): forests are shared read-only between
// concurrent simulations and analyses, as the error-aware planner does when
// scoring candidates in parallel sessions.
func TestConcurrentSimulateAndAnalyze(t *testing.T) {
	f := pcrForest(t, 12)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			if _, err := Simulate(f, Params{SplitImbalance: 0.05, Trials: 50, Seed: seed}); err != nil {
				t.Errorf("Simulate: %v", err)
			}
			if _, err := Analyze(f, Params{SplitImbalance: 0.05}); err != nil {
				t.Errorf("Analyze: %v", err)
			}
		}(int64(i))
	}
	wg.Wait()
}
