package errormodel

import (
	"flag"
	"math"
	"testing"

	"repro/internal/forest"
	"repro/internal/mixgraph"
	"repro/internal/ratio"
	"repro/internal/rsm"
	"repro/internal/synth"
)

var fullSweep = flag.Bool("sweep", false, "check the base-node lemma on every PaperDataset ratio instead of a sample")

// lemmaTrees is the number of component trees the lemma test grows per
// graph: the forest of every demand 1..2·lemmaTrees is a prefix of it.
const lemmaTrees = 128

// lemmaSampleStride picks the PaperDataset sample `go test` checks: every
// lemmaSampleStride-th ratio (-sweep checks all of them).
const lemmaSampleStride = 53

// lemmaNoise is the noise grid of the lemma test.
var lemmaNoise = []Params{
	{SplitImbalance: 0.05, DispenseError: 0.02},
	{SplitImbalance: 0.2},
	{DispenseError: 0.1},
	{SplitImbalance: 0.01, DispenseError: 0.3},
}

// walkForest is the per-task interval walk AnalyzeGraph replaced: it
// propagates the recurrence through a packed forest task by task, reading
// each input's interval from the task that produced it. It is the
// reference the base-node lemma (DESIGN §14) is checked against.
func walkForest(f *forest.PackedForest, p Params) []TaskError {
	n := f.Base.Target.N()
	eps, delta := p.SplitImbalance, p.DispenseError
	tasks := make([]TaskError, len(f.Tasks))

	nodeCF := make([]float64, n*len(f.Base.Nodes))
	for id, vec := range f.Base.Vectors() {
		den := float64(vec.Denom())
		for i := 0; i < n; i++ {
			nodeCF[id*n+i] = float64(vec.Num(i)) / den
		}
	}
	cf := func(s forest.PSource, i int) float64 {
		if s.Kind() == forest.Input {
			if int(s.Ref()) == i {
				return 1
			}
			return 0
		}
		return nodeCF[int(f.Tasks[s.Ref()].Base)*n+i]
	}
	in := func(s forest.PSource) (Interval, float64, float64) {
		if s.Kind() == forest.Input {
			return Interval{}, 1 - delta, 1 + delta
		}
		t := tasks[s.Ref()]
		return t.Err, t.VolLo, t.VolHi
	}
	for id := range f.Tasks {
		t := &f.Tasks[id]
		ea, alo, ahi := in(t.In[0])
		eb, blo, bhi := in(t.In[1])
		div := 0.0
		for i := 0; i < n; i++ {
			if d := math.Abs(cf(t.In[0], i) - cf(t.In[1], i)); d > div {
				div = d
			}
		}
		whi := ahi / (ahi + blo)
		wlo := alo / (alo + bhi)
		bound := func(w float64) float64 {
			return w*ea.Worst + (1-w)*eb.Worst + math.Abs(w-0.5)*div
		}
		worst := bound(whi)
		if b := bound(wlo); b > worst {
			worst = b
		}
		wdev := math.Max(whi-0.5, 0.5-wlo)
		expected := 0.5*(ea.Expected+eb.Expected) + wdev/math.Sqrt(3)*div
		mlo, mhi := alo+blo, ahi+bhi
		tasks[id] = TaskError{
			Err:   Interval{Worst: worst, Expected: expected},
			VolLo: mlo / 2 * (1 - eps),
			VolHi: mhi / 2 * (1 + eps),
		}
	}
	return tasks
}

// checkPackedPremise reports the first task of f whose inputs are not what
// the obtain recursion gives every task of its base node
// (forest.FromChildren), and a tree not rooted at the base root.
func checkPackedPremise(t *testing.T, name string, f *forest.PackedForest) bool {
	t.Helper()
	for id := range f.Tasks {
		if v := f.Base.Nodes[f.Tasks[id].Base]; v.IsLeaf() || !f.FromChildren(id) {
			t.Errorf("%s: task %d (node %d) inputs %+v are not instances of its node's children", name, id, v.ID, f.Tasks[id].In)
			return false
		}
	}
	for i := range f.NumTrees() {
		if root := f.Root(i); int(f.Tasks[root].Base) != f.Base.Root.ID {
			t.Errorf("%s: tree %d is rooted at node %d, not the base root", name, i+1, f.Tasks[root].Base)
			return false
		}
	}
	return true
}

// checkLemma grows one forest of lemmaTrees trees over g, checks the
// premise (forest.PackedForest.FromChildren, the predicate the plan audit
// runs) on every task and compares the graph pass with the per-task walk
// on every task and on the aggregates of every demand 1..2·lemmaTrees, at
// every noise setting of the grid. It returns the number of tasks checked.
func checkLemma(t *testing.T, name string, g *mixgraph.Graph, pb *forest.PackedBuilder) int {
	t.Helper()
	pb.Reset(g)
	for i := 0; i < lemmaTrees; i++ {
		pb.AddTree()
	}
	f := pb.Forest()
	if !checkPackedPremise(t, name, f) {
		return 0
	}
	for _, p := range lemmaNoise {
		an, err := AnalyzeGraph(g, p)
		if err != nil {
			t.Fatalf("%s: AnalyzeGraph: %v", name, err)
		}
		walk := walkForest(f, p)
		for id := range f.Tasks {
			if got, want := an.Nodes[f.Tasks[id].Base], walk[id]; got != want {
				t.Errorf("%s ι=%g δ=%g: task %d (node %d): graph pass %+v, walk %+v",
					name, p.SplitImbalance, p.DispenseError, id, f.Tasks[id].Base, got, want)
				return 0
			}
		}
		// The demand-D forest is the first ⌈D/2⌉ trees; its aggregates are
		// the maxima over those trees' roots, as the walk took them.
		var worst, expected, volDev float64
		for trees := range f.NumTrees() {
			te := walk[f.Root(trees)]
			if te.Err.Worst > worst {
				worst = te.Err.Worst
			}
			if te.Err.Expected > expected {
				expected = te.Err.Expected
			}
			if d := math.Max(te.VolHi-1, 1-te.VolLo); d > volDev {
				volDev = d
			}
			if an.WorstTarget != worst || an.ExpectedTarget != expected || an.VolDev != volDev {
				t.Errorf("%s ι=%g δ=%g: demands %d-%d: graph pass (%g, %g, %g), walk (%g, %g, %g)",
					name, p.SplitImbalance, p.DispenseError, 2*trees+1, 2*trees+2,
					an.WorstTarget, an.ExpectedTarget, an.VolDev, worst, expected, volDev)
				return 0
			}
		}
	}
	return len(f.Tasks)
}

// TestGraphPassMatchesForestWalk is the exhaustive check of the lemma of
// DESIGN §14: in a forest grown from base graph g, every task's interval
// equals its base node's, and every demand's aggregates equal g.Root's. It
// covers the Table 2 protocols and PCR16, and PaperDataset × MM/RMA/MTCS/RSM —
// every 53rd ratio under `go test`, every ratio with -sweep (`make
// bench-error-smoke`) — each at 128 trees (demands 1..256) over the noise
// grid lemmaNoise.
func TestGraphPassMatchesForestWalk(t *testing.T) {
	ratios := make([]ratio.Ratio, 0, 256)
	for _, proto := range allProtocols() {
		ratios = append(ratios, proto.Ratio)
	}
	for i, r := range synth.PaperDataset() {
		if *fullSweep || i%lemmaSampleStride == 0 {
			ratios = append(ratios, r)
		}
	}
	withRSM := builders[0]
	withRSM.name, withRSM.build = "RSM", rsm.Build
	algos := append(builders[:len(builders):len(builders)], withRSM)
	pb := &forest.PackedBuilder{}
	graphs, tasks := 0, 0
	for _, r := range ratios {
		for _, b := range algos {
			g, err := b.build(r)
			if err != nil {
				t.Fatalf("%s %s: %v", b.name, r, err)
			}
			tasks += checkLemma(t, b.name+" "+r.String(), g, pb)
			graphs++
			if t.Failed() {
				return
			}
		}
	}
	t.Logf("%d graphs, %d tasks at %d trees, %d noise settings: no mismatch", graphs, tasks, lemmaTrees, len(lemmaNoise))
}

// TestAnalyzeRejectsBrokenPremise tampers a forest so that one task's
// inputs no longer come from instances of its base node's children; the
// lemma does not cover it, so Analyze must refuse rather than copy the
// base node's interval.
func TestAnalyzeRejectsBrokenPremise(t *testing.T) {
	p := Params{SplitImbalance: 0.05}
	for _, tc := range []struct {
		name   string
		tamper func(f *forest.Forest) bool
	}{
		{"swapped inputs", func(f *forest.Forest) bool {
			for _, task := range f.Tasks {
				if c := task.Base.Children; c[0] != c[1] && c[0].IsLeaf() != c[1].IsLeaf() {
					task.In[0], task.In[1] = task.In[1], task.In[0]
					return true
				}
			}
			return false
		}},
		{"wrong fluid", func(f *forest.Forest) bool {
			for _, task := range f.Tasks {
				if task.In[0].Kind == forest.Input {
					task.In[0].Fluid = (task.In[0].Fluid + 1) % f.Base.Target.N()
					return true
				}
			}
			return false
		}},
		{"leaf task", func(f *forest.Forest) bool {
			for _, node := range f.Base.Nodes {
				if node.IsLeaf() {
					f.Tasks[0].Base = node
					return true
				}
			}
			return false
		}},
		{"tree rooted below the base root", func(f *forest.Forest) bool {
			for _, task := range f.Tasks {
				if task.Base != f.Base.Root {
					f.Trees[0].Root = task
					return true
				}
			}
			return false
		}},
	} {
		f := pcrForest(t, 8)
		if _, err := Analyze(f, p); err != nil {
			t.Fatalf("%s: untampered forest rejected: %v", tc.name, err)
		}
		if !tc.tamper(f) {
			t.Fatalf("%s: no task to tamper", tc.name)
		}
		if _, err := Analyze(f, p); err == nil {
			t.Errorf("%s: Analyze accepted a forest outside the lemma's premise", tc.name)
		}
	}
}
