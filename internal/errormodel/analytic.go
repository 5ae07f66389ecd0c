// Analytic (closed-form) CF-error interval propagation through a mixing
// forest. Where Simulate estimates the error distribution by Monte-Carlo
// sampling, Analyze derives, per task, a worst-case interval that provably
// contains every realization of the model and an expected-magnitude
// estimate suitable for ranking candidate plans. The worst-case bound is
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
// maximum over the w-interval is attained at an endpoint; Analyze evaluates
// both. Dropping the anti-correlation between the two halves of one split
// only relaxes the bound, so the result dominates every sample path —
// TestAnalyticDominatesMonteCarlo pins this against Simulate's P95 and Max
// on every protocol and base algorithm.
package errormodel

import (
	"fmt"
	"math"

	"repro/internal/forest"
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

// Analysis is the closed-form error propagation over one forest.
type Analysis struct {
	// Params echoes the noise magnitudes the analysis was run under
	// (Trials/Seed are not used).
	Params Params
	// Tasks holds the per-task intervals, indexed by task ID.
	Tasks []TaskError
	// Targets is the number of emitted target droplets covered.
	Targets int
	// WorstTarget bounds the L∞ CF error of every emitted target droplet;
	// ExpectedTarget is the largest per-tree expected-magnitude estimate.
	WorstTarget, ExpectedTarget float64
	// VolDev bounds |volume − 1| over the emitted target droplets.
	VolDev float64
}

// Analyze is AnalyzePacked over a pointer-linked single-target forest,
// packed first; task IDs are the forest's. A forest whose tasks
// instantiate nodes of other base graphs (a multi-target forest) is
// rejected: analyze each target's forest on its own.
func Analyze(f *forest.Forest, p Params) (*Analysis, error) {
	for _, t := range f.Tasks {
		if t.Base.ID >= len(f.Base.Nodes) || f.Base.Nodes[t.Base.ID] != t.Base {
			return nil, fmt.Errorf("errormodel: task %d instantiates a node of another base graph", t.ID)
		}
	}
	pf, err := forest.Pack(f)
	if err != nil {
		return nil, fmt.Errorf("errormodel: %w", err)
	}
	return AnalyzePacked(pf, p)
}

// AnalyzePacked propagates worst-case and expected CF-error intervals
// through a packed single-target forest in closed form — no sampling. The
// worst-case side is a true bound: it dominates every realization of the
// Monte-Carlo model with the same parameters (and hence Simulate's P95 and
// Max for any trial count). Each task's exact vector is its base node's,
// so the analysis reads the packed arrays and the base graph alone: an
// error-aware planner scores cached plans without materializing them.
func AnalyzePacked(f *forest.PackedForest, p Params) (*Analysis, error) {
	if p.SplitImbalance < 0 || p.SplitImbalance >= 0.5 ||
		p.DispenseError < 0 || p.DispenseError >= 0.5 {
		return nil, ErrBadParams
	}
	n := f.Base.Target.N()
	eps, delta := p.SplitImbalance, p.DispenseError

	an := &Analysis{Params: p, Tasks: make([]TaskError, len(f.Tasks))}

	// nodeCF holds the exact CF vector of every base node as floats, n per
	// node; a task's output droplets carry its base node's.
	nodeCF := make([]float64, n*len(f.Base.Nodes))
	for _, node := range f.Base.Nodes {
		den := float64(node.Vec.Denom())
		for i := 0; i < n; i++ {
			nodeCF[node.ID*n+i] = float64(node.Vec.Num(i)) / den
		}
	}
	// cf returns entry i of a source droplet's exact CF vector.
	cf := func(s forest.PSource, i int) float64 {
		if s.Kind == forest.Input {
			if int(s.Ref) == i {
				return 1
			}
			return 0
		}
		return nodeCF[int(f.Tasks[s.Ref].Base)*n+i]
	}
	// in resolves a source's error interval and volume bounds.
	in := func(s forest.PSource) (Interval, float64, float64) {
		if s.Kind == forest.Input {
			return Interval{}, 1 - delta, 1 + delta
		}
		t := an.Tasks[s.Ref]
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
		an.Tasks[id] = TaskError{
			Err:   Interval{Worst: worst, Expected: expected},
			VolLo: mlo / 2 * (1 - eps),
			VolHi: mhi / 2 * (1 + eps),
		}
	}

	// Aggregate over the emitted targets: the two outputs of every tree
	// root, whose exact vector is the target (the plan audits prove it).
	for _, root := range f.Roots {
		te := an.Tasks[root]
		an.Targets += 2
		if te.Err.Worst > an.WorstTarget {
			an.WorstTarget = te.Err.Worst
		}
		if te.Err.Expected > an.ExpectedTarget {
			an.ExpectedTarget = te.Err.Expected
		}
		if d := math.Max(te.VolHi-1, 1-te.VolLo); d > an.VolDev {
			an.VolDev = d
		}
	}
	if an.Targets == 0 {
		return nil, fmt.Errorf("errormodel: forest emits no target droplets")
	}
	return an, nil
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
