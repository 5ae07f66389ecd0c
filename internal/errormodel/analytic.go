// Analytic (closed-form) CF-error interval propagation through a base
// mixing graph. Where Simulate estimates the error distribution by
// Monte-Carlo sampling over a forest, AnalyzeGraph derives, per base node —
// and so for every forest task instantiating it (DESIGN §14) — a
// worst-case interval that provably contains every realization of the
// model and an expected-magnitude estimate suitable for ranking candidate
// plans. The worst-case bound is
// what the runtime derives its checkpoint tolerances from (a healthy chip
// can never legitimately exceed it); the expected estimate is what the
// error-aware planner minimizes.
//
// Derivation. Write every droplet's CF vector as c = ĉ + e, with ĉ the
// exact (rational) CF of its forest node and e the volumetric error vector.
// Fresh dispenses are pure fluids: e = 0 regardless of volume error.
// Splitting preserves concentration: e passes through unchanged. Merging
// droplets a, b of volumes va, vb yields
//
//	c = w·ca + (1−w)·cb,  w = va/(va+vb),
//
// so with ŵ = 1/2 (unit droplets) the merged error is
//
//	e = w·ea + (1−w)·eb + (w − 1/2)(ĉa − ĉb).
//
// Taking L∞ norms, ‖e‖ ≤ w·Ea + (1−w)·Eb + |w − 1/2|·Δ where Δ = ‖ĉa −
// ĉb‖∞ is the exact divergence of the two input nodes — a quantity the task
// graph provides in closed form. The admissible range of w follows from the
// per-droplet volume intervals, themselves propagated exactly: dispense
// v ∈ [1−δ, 1+δ]; merge adds intervals; a split half of v ∈ [lo, hi] lies
// in [lo/2·(1−ε), hi/2·(1+ε)]. The bound above is convex in w, so its
// maximum over the w-interval is attained at an endpoint; AnalyzeGraph
// evaluates both. Dropping the anti-correlation between the two halves of one split
// only relaxes the bound, so the result dominates every sample path —
// TestAnalyticDominatesMonteCarlo pins this against Simulate's P95 and Max
// on every protocol and base algorithm.
package errormodel

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/forest"
	"repro/internal/mixgraph"
)

// Interval is a per-node CF-error summary: a worst-case bound that no
// realization of the model exceeds, and an expected-magnitude estimate
// (uniform noise, RMS-propagated) for ranking.
type Interval struct {
	Worst    float64
	Expected float64
}

// TaskError is the analytic error state of one mix-split task's output
// droplets.
type TaskError struct {
	// Err bounds the L∞ CF deviation of the task's output droplets from
	// the task's exact vector.
	Err Interval
	// VolLo and VolHi bound each output droplet's volume (ideal 0.5·2 = 1
	// per half after the parent merge of two unit droplets).
	VolLo, VolHi float64
}

// Analysis is the closed-form error propagation over one base graph and,
// from Analyze, over one forest grown from it.
type Analysis struct {
	// Params echoes the noise magnitudes the analysis was run under
	// (Trials/Seed are not used).
	Params Params
	// Nodes holds every base-graph node's interval, indexed by node ID. A
	// leaf's is a fresh dispense: no CF error, volume [1−δ, 1+δ].
	Nodes []TaskError
	// Tasks holds a forest's per-task intervals, indexed by task ID; each
	// is its base node's (DESIGN §14). Only Analyze sets it.
	Tasks []TaskError
	// Mixes is the analysed plan's mix-split task count, which sizes the
	// recovery budget of runtime.DeriveFromModel. Analyze sets it to
	// len(Tasks); a caller that analyses a plan's base graph sets it from
	// the plan's stats.
	Mixes int
	// Targets is the number of emitted target droplets covered (Analyze
	// only).
	Targets int
	// WorstTarget bounds the L∞ CF error of every emitted target droplet;
	// ExpectedTarget is the expected-magnitude estimate. Both are the base
	// root's, at every demand.
	WorstTarget, ExpectedTarget float64
	// VolDev bounds |volume − 1| over the emitted target droplets.
	VolDev float64
}

// AnalyzeGraph propagates worst-case and expected CF-error intervals
// through a base graph in closed form — no sampling. Every task of a forest
// grown from g carries exactly its base node's interval and every tree root
// instantiates g.Root (the lemma of DESIGN §14), so one forward pass over
// g.Nodes scores every demand's forest and every pass of a plan. The
// worst-case side is a true bound: it dominates every realization of the
// Monte-Carlo model with the same parameters (and hence Simulate's P95 and
// Max for any trial count).
func AnalyzeGraph(g *mixgraph.Graph, p Params) (*Analysis, error) {
	if err := checkParams(p); err != nil {
		return nil, err
	}
	an := &Analysis{Params: p, Nodes: make([]TaskError, len(g.Nodes))}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	forward(g, p, an.Nodes, s)
	// The emitted targets are the two outputs of every tree root, a task of
	// g.Root whose exact vector is the target (audit.CheckPacked proves it,
	// and this lemma's premise, on every cached plan).
	root := an.Nodes[g.Root.ID]
	target := targetInterval(root)
	an.WorstTarget, an.ExpectedTarget = target.Worst, target.Expected
	an.VolDev = max(0, root.VolHi-1, 1-root.VolLo)
	return an, nil
}

// AnalyzeRoot is the emitted targets' interval of AnalyzeGraph — its
// WorstTarget and ExpectedTarget, bit for bit — without the Analysis: the
// same forward pass runs over pooled scratch, so scoring a candidate
// graph allocates nothing.
func AnalyzeRoot(g *mixgraph.Graph, p Params) (Interval, error) {
	if err := checkParams(p); err != nil {
		return Interval{}, err
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.nodes = slices.Grow(s.nodes[:0], len(g.Nodes))[:len(g.Nodes)]
	forward(g, p, s.nodes, s)
	return targetInterval(s.nodes[g.Root.ID]), nil
}

func checkParams(p Params) error {
	if p.SplitImbalance < 0 || p.SplitImbalance >= 0.5 ||
		p.DispenseError < 0 || p.DispenseError >= 0.5 {
		return ErrBadParams
	}
	return nil
}

// targetInterval is the emitted targets' interval given the root's.
func targetInterval(root TaskError) Interval {
	return Interval{Worst: max(0, root.Err.Worst), Expected: max(0, root.Err.Expected)}
}

// forward is the forward pass of AnalyzeGraph: it writes every node's
// interval into nodes (indexed by node ID, one per node of g), children
// before parents, with the nodes' exact vectors written into s.words.
func forward(g *mixgraph.Graph, p Params, nodes []TaskError, s *scratch) {
	n := g.Target.N()
	eps, delta := p.SplitImbalance, p.DispenseError
	// The nodes' exact vectors, n numerators then the exponent per node.
	vecs := slices.Grow(s.words[:0], len(g.Nodes)*(n+1))[:len(g.Nodes)*(n+1)]
	s.words = vecs
	g.VectorWords(vecs)
	for i := range g.Nodes {
		v := &g.Nodes[i]
		if v.IsLeaf() {
			nodes[v.ID] = TaskError{VolLo: 1 - delta, VolHi: 1 + delta}
			continue
		}
		a, b := v.Children[0], v.Children[1]
		ea, alo, ahi := nodes[a].Err, nodes[a].VolLo, nodes[a].VolHi
		eb, blo, bhi := nodes[b].Err, nodes[b].VolLo, nodes[b].VolHi
		// Δ is the L∞ distance of the children's exact vectors (a leaf's is
		// the unit vector of its fluid).
		va, vb := vecs[int(a)*(n+1):][:n+1], vecs[int(b)*(n+1):][:n+1]
		dena, denb := float64(int64(1)<<va[n]), float64(int64(1)<<vb[n])
		div := 0.0
		for i := 0; i < n; i++ {
			if d := math.Abs(float64(va[i])/dena - float64(vb[i])/denb); d > div {
				div = d
			}
		}
		// Worst case: the bound is convex in w, so evaluate it at both
		// endpoints of the admissible mixing-weight interval.
		whi := ahi / (ahi + blo)
		wlo := alo / (alo + bhi)
		bound := func(w float64) float64 {
			return w*ea.Worst + (1-w)*eb.Worst + math.Abs(w-0.5)*div
		}
		worst := bound(whi)
		if b := bound(wlo); b > worst {
			worst = b
		}
		// Expected magnitude: independent uniform volume errors put the
		// RMS of (w − 1/2) at ≈ wdev/√3; input errors average.
		wdev := math.Max(whi-0.5, 0.5-wlo)
		expected := 0.5*(ea.Expected+eb.Expected) + wdev/math.Sqrt(3)*div

		mlo, mhi := alo+blo, ahi+bhi
		nodes[v.ID] = TaskError{
			Err:   Interval{Worst: worst, Expected: expected},
			VolLo: mlo / 2 * (1 - eps),
			VolHi: mhi / 2 * (1 + eps),
		}
	}
}

// scratch is a forward pass's pooled working memory: the nodes' vector
// words and, for AnalyzeRoot, their intervals. The error-aware planner
// analyses every candidate graph of every request.
type scratch struct {
	words []int64
	nodes []TaskError
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Analyze is AnalyzeGraph over a single-target forest's base graph, with
// each task's interval copied from its base node; task IDs are the
// forest's. It first checks the lemma's premise on every task (DESIGN §14):
// a forest whose tasks do not read their inputs from instances of their
// base node's children — a multi-target forest, whose tasks instantiate
// nodes of other base graphs, or a hand-built one — is rejected, so Analyze
// never returns an interval the lemma has not proved.
func Analyze(f *forest.Forest, p Params) (*Analysis, error) {
	g := f.Base
	for _, tree := range f.Trees {
		if tree.Root.Base != g.Root {
			return nil, fmt.Errorf("errormodel: tree %d is not rooted at its base graph's root", tree.Index)
		}
	}
	if len(f.Trees) == 0 {
		return nil, fmt.Errorf("errormodel: forest emits no target droplets")
	}
	an, err := AnalyzeGraph(g, p)
	if err != nil {
		return nil, err
	}
	an.Tasks = make([]TaskError, len(f.Tasks))
	for i, t := range f.Tasks {
		if err := checkPremise(g, t); err != nil {
			return nil, err
		}
		an.Tasks[i] = an.Nodes[t.Base.ID]
	}
	an.Mixes = len(f.Tasks)
	an.Targets = 2 * len(f.Trees)
	return an, nil
}

// checkPremise reports a task of g's forest whose inputs are not what the
// obtain recursion gives every task of its base node v: input k is a fresh
// dispense of v.Children[k]'s fluid when that child is a leaf, and an
// output of a task of v.Children[k] otherwise.
func checkPremise(g *mixgraph.Graph, t *forest.Task) error {
	v := t.Base
	if v.ID < 0 || int(v.ID) >= len(g.Nodes) || &g.Nodes[v.ID] != v {
		return fmt.Errorf("errormodel: task %d instantiates a node of another base graph", t.ID)
	}
	if v.IsLeaf() {
		return fmt.Errorf("errormodel: task %d instantiates leaf node %d", t.ID, v.ID)
	}
	for k, id := range v.Children {
		c, src := &g.Nodes[id], t.In[k]
		if c.IsLeaf() && src.Kind == forest.Input && src.Fluid == int(c.Fluid) ||
			!c.IsLeaf() && src.Kind == forest.FromTask && src.Task.Base == c {
			continue
		}
		return fmt.Errorf("errormodel: task %d input %d is not an instance of its base node's child %d", t.ID, k, id)
	}
	return nil
}

// Policy configures the error-aware planner (internal/stream,
// internal/core): the physical noise magnitudes to plan under and how many
// schedule cycles the planner may trade away for a lower predicted error.
type Policy struct {
	// Params carries the noise magnitudes (SplitImbalance, DispenseError);
	// Trials and Seed are ignored by the analytic planner.
	Params Params
	// CycleSlack is the fraction of extra single-pass schedule cycles a
	// candidate plan may cost over the cycle-optimal candidate and still be
	// considered (0 admits only cycle-optimal candidates; 0.25 admits
	// candidates up to 25% slower).
	CycleSlack float64
}

// Validate checks the policy's ranges.
func (p Policy) Validate() error {
	if p.Params.SplitImbalance < 0 || p.Params.SplitImbalance >= 0.5 ||
		p.Params.DispenseError < 0 || p.Params.DispenseError >= 0.5 ||
		p.CycleSlack < 0 {
		return ErrBadParams
	}
	return nil
}
