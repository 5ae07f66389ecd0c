package stream

import (
	"errors"
	"math"
	"testing"

	"repro/internal/errormodel"
	"repro/internal/minmix"
	"repro/internal/mixgraph"
	"repro/internal/mtcs"
	"repro/internal/obs"
	"repro/internal/ratio"
	"repro/internal/rma"
)

// ex1Bases builds the three paper base graphs for the Table 2 Ex.1 mixture,
// whose MM/RMA/MTCS trees differ in shape and therefore in noise
// robustness.
func ex1Bases(t *testing.T) (mm, rm, mt *mixgraph.Graph) {
	t.Helper()
	r := ratio.MustParse("26:21:2:2:3:3:199")
	for _, b := range []struct {
		build func(ratio.Ratio) (*mixgraph.Graph, error)
		dst   **mixgraph.Graph
	}{
		{minmix.Build, &mm},
		{rma.Build, &rm},
		{mtcs.Build, &mt},
	} {
		g, err := b.build(r)
		if err != nil {
			t.Fatalf("base build: %v", err)
		}
		*b.dst = g
	}
	return mm, rm, mt
}

func TestErrorAwareSelectsLowestExpectedError(t *testing.T) {
	mm, rm, mt := ex1Bases(t)
	pol := &errormodel.Policy{
		Params:     errormodel.Params{SplitImbalance: 0.05, DispenseError: 0.01},
		CycleSlack: 1.0, // admit everything: the winner is purely the most robust
	}
	res, err := Run(Config{
		Base:        mm,
		Mixers:      4,
		Candidates:  []*mixgraph.Graph{rm, mt},
		ErrorPolicy: pol,
	}, 8)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sel := res.Selection
	if sel == nil {
		t.Fatal("error-aware run returned no Selection")
	}
	if len(sel.Candidates) != 3 {
		t.Fatalf("scored %d candidates, want 3", len(sel.Candidates))
	}
	var winner *CandidateScore
	for i := range sel.Candidates {
		c := &sel.Candidates[i]
		if !c.Admissible {
			t.Errorf("candidate %s inadmissible under full slack", c.Algorithm)
		}
		if c.Selected {
			winner = c
		}
		if c.Expected > c.Worst+1e-12 {
			t.Errorf("candidate %s: expected %g above worst bound %g", c.Algorithm, c.Expected, c.Worst)
		}
	}
	if winner == nil {
		t.Fatal("no candidate marked selected")
	}
	for _, c := range sel.Candidates {
		if c.Expected < winner.Expected {
			t.Errorf("winner %s (expected %g) beaten by %s (%g)",
				winner.Algorithm, winner.Expected, c.Algorithm, c.Expected)
		}
	}
	if sel.Algorithm != winner.Algorithm || res.Config.Base.Algorithm != winner.Algorithm {
		t.Errorf("selection %q / plan base %q disagree with winner %q",
			sel.Algorithm, res.Config.Base.Algorithm, winner.Algorithm)
	}
	if sel.Predicted.Expected != winner.Expected || sel.Predicted.Worst != winner.Worst {
		t.Error("Selection.Predicted does not echo the winner's score")
	}
	// The prediction must agree with a direct closed-form analysis of the
	// plan the caller actually received.
	iv, err := planErrorInterval(res, pol.Params)
	if err != nil {
		t.Fatalf("planErrorInterval: %v", err)
	}
	if iv != sel.Predicted {
		t.Errorf("predicted interval %+v != recomputed %+v", sel.Predicted, iv)
	}
}

func TestErrorAwareZeroSlackStaysCycleOptimal(t *testing.T) {
	mm, rm, mt := ex1Bases(t)
	res, err := Run(Config{
		Base:       mm,
		Mixers:     4,
		Candidates: []*mixgraph.Graph{rm, mt},
		ErrorPolicy: &errormodel.Policy{
			Params: errormodel.Params{SplitImbalance: 0.08},
		},
	}, 8)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	minCycles := 0
	var selected CandidateScore
	for _, c := range res.Selection.Candidates {
		if minCycles == 0 || c.Cycles < minCycles {
			minCycles = c.Cycles
		}
		if c.Selected {
			selected = c
		}
	}
	if selected.Cycles != minCycles {
		t.Errorf("zero slack selected %s at %d cycles; cycle optimum is %d",
			selected.Algorithm, selected.Cycles, minCycles)
	}
	if res.TotalCycles != minCycles {
		t.Errorf("plan runs %d cycles, cycle optimum is %d", res.TotalCycles, minCycles)
	}
}

func TestErrorBlindHasNoSelection(t *testing.T) {
	res, err := Run(Config{Base: pcrBase(t), Mixers: 3}, 8)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Selection != nil {
		t.Error("error-blind plan carries a Selection")
	}
}

func TestErrorAwareRejectsBadPolicy(t *testing.T) {
	_, err := Run(Config{
		Base:        pcrBase(t),
		Mixers:      3,
		ErrorPolicy: &errormodel.Policy{Params: errormodel.Params{SplitImbalance: 0.7}},
	}, 4)
	if !errors.Is(err, errormodel.ErrBadParams) {
		t.Errorf("bad policy error = %v, want ErrBadParams", err)
	}
}

// TestErrorAwareMultiPass checks selection under a storage limit: candidate
// plans stream in several passes and the scored cycles are the multi-pass
// totals.
func TestErrorAwareMultiPass(t *testing.T) {
	mm, rm, mt := ex1Bases(t)
	res, err := Run(Config{
		Base:       mm,
		Mixers:     4,
		Storage:    3,
		Scheduler:  SRS,
		Candidates: []*mixgraph.Graph{rm, mt},
		ErrorPolicy: &errormodel.Policy{
			Params:     errormodel.Params{SplitImbalance: 0.05},
			CycleSlack: 0.3,
		},
	}, 24)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Selection == nil {
		t.Fatal("no Selection on multi-pass error-aware plan")
	}
	if len(res.Passes) < 2 {
		t.Fatalf("expected a multi-pass plan under q'=6, got %d passes", len(res.Passes))
	}
	for _, c := range res.Selection.Candidates {
		if c.Selected && c.Cycles != res.TotalCycles {
			t.Errorf("winner scored %d cycles, plan totals %d", c.Cycles, res.TotalCycles)
		}
	}
}

// TestErrorAwareCounterDisabledZeroAlloc pins the disabled-observability
// cost of the selection counter: a request on a server without -metrics
// must not pay an allocation for it.
func TestErrorAwareCounterDisabledZeroAlloc(t *testing.T) {
	if obs.Enabled() {
		t.Skip("observability enabled by another test")
	}
	allocs := testing.AllocsPerRun(100, func() {
		obs.Inc("stream.error_aware.selections")
	})
	if allocs != 0 {
		t.Errorf("disabled obs counter allocates %.0f per call, want 0", allocs)
	}
}

// BenchmarkErrorAwareSelection measures the full three-candidate selection
// on a warm plan cache — the steady-state cost an error-aware request adds
// over an error-blind one.
func BenchmarkErrorAwareSelection(b *testing.B) {
	r := ratio.MustParse("26:21:2:2:3:3:199")
	mm, err := minmix.Build(r)
	if err != nil {
		b.Fatal(err)
	}
	rm, err := rma.Build(r)
	if err != nil {
		b.Fatal(err)
	}
	mt, err := mtcs.Build(r)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Base:       mm,
		Mixers:     4,
		Candidates: []*mixgraph.Graph{rm, mt},
		ErrorPolicy: &errormodel.Policy{
			Params:     errormodel.Params{SplitImbalance: 0.05, DispenseError: 0.01},
			CycleSlack: 0.25,
		},
	}
	if _, err := Run(cfg, 8); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// TestErrorAwareHugeSlackAdmitsAll pins the overflow fix: a cycle slack so
// large that (1+slack)·cycles exceeds an int caps the limit at math.MaxInt,
// admitting every candidate, instead of wrapping negative and selecting none.
func TestErrorAwareHugeSlackAdmitsAll(t *testing.T) {
	mm, rm, mt := ex1Bases(t)
	for _, slack := range []float64{1e18, 1e30, math.MaxFloat64} {
		res, err := Run(Config{
			Base:       mm,
			Mixers:     4,
			Candidates: []*mixgraph.Graph{rm, mt},
			ErrorPolicy: &errormodel.Policy{
				Params:     errormodel.Params{SplitImbalance: 0.05},
				CycleSlack: slack,
			},
		}, 8)
		if err != nil {
			t.Fatalf("slack %g: %v", slack, err)
		}
		sel := res.Selection
		if sel.CycleLimit != math.MaxInt {
			t.Errorf("slack %g: cycle limit %d, want math.MaxInt", slack, sel.CycleLimit)
		}
		selected := 0
		for _, c := range sel.Candidates {
			if !c.Admissible {
				t.Errorf("slack %g: candidate %s inadmissible", slack, c.Algorithm)
			}
			if c.Selected {
				selected++
			}
		}
		if selected != 1 {
			t.Errorf("slack %g: %d candidates selected, want 1", slack, selected)
		}
	}
}
