// Package errormodel quantifies how physical imperfections of a DMF biochip
// — unbalanced droplet splits and dispensing volume errors — perturb the
// concentration factors of the target droplets a mixing forest emits. The
// DAC 2014 paper treats only the rounding error of approximating a ratio at
// accuracy level d (at most 1/2^d per constituent); this package adds the
// volumetric dimension by Monte-Carlo propagation through the exact task
// graph, which is how one compares base algorithms of different depths and
// shapes for robustness.
//
// Model: dispensing yields volume 1±δ (uniform); a (1:1) split of a merged
// droplet of volume v yields v/2·(1+ε) and v/2·(1−ε) with ε uniform in the
// configured imbalance range. Merging mixes concentrations in proportion to
// the actual volumes; splitting preserves concentration. The reported error
// of a target droplet is its L∞ CF deviation from the exact target.
package errormodel

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/forest"
)

// Params configures the Monte-Carlo simulation.
type Params struct {
	// SplitImbalance is the maximum relative volume imbalance per split
	// (e.g. 0.05 for ±5%).
	SplitImbalance float64
	// DispenseError is the maximum relative volume error per dispensed
	// droplet.
	DispenseError float64
	// Trials is the number of Monte-Carlo runs (default 1000).
	Trials int
	// Seed makes runs reproducible.
	Seed int64
	// KeepErrors retains the sorted per-target error samples on the Report
	// (Trials × Targets values) for statistics beyond mean/P95/max, e.g.
	// the fraction of targets a given CF tolerance would send back for
	// re-mixing.
	KeepErrors bool
	// OrderedHandoff selects the deterministic hand-off in which the larger
	// half of every split is always consumed first, so the first consumer
	// (the in-tree parent) systematically inherits the +|ε| volume surplus
	// and any waste-pool reuse the deficit. The physical executor makes no
	// such guarantee — which half reaches which consumer depends on routing
	// — so the default randomizes the hand-off per split. The legacy code
	// handed the (1+ε) half first, a convention whose sign-symmetry only
	// accidentally hid this assignment bias; the flag exists for A/B
	// regression tests of the bias, not for production use.
	OrderedHandoff bool
}

// Report summarises the CF error distribution over all target droplets and
// trials.
type Report struct {
	// Trials and Targets are the sample dimensions.
	Trials  int
	Targets int
	// MeanErr, P95Err and MaxErr describe the L∞ CF error distribution.
	MeanErr, P95Err, MaxErr float64
	// MinVolume and MaxVolume bound the emitted droplet volumes (ideal 1.0).
	MinVolume, MaxVolume float64
	// Errors holds the sorted per-target L∞ error samples when
	// Params.KeepErrors is set, and is nil otherwise.
	Errors []float64
}

// ExceedRate returns the fraction of error samples strictly above tol — the
// re-mix rate a checkpoint sensor with that CF tolerance would impose. The
// Report must have been produced with Params.KeepErrors.
func (r *Report) ExceedRate(tol float64) float64 {
	if len(r.Errors) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(r.Errors, tol)
	for i < len(r.Errors) && r.Errors[i] == tol {
		i++
	}
	return float64(len(r.Errors)-i) / float64(len(r.Errors))
}

// Simulation errors.
var (
	ErrBadParams = errors.New("errormodel: error magnitudes must be in [0, 0.5) and trials positive")
)

// Droplet is one physical droplet in flight: its volume (unit droplets are
// 1.0) and its concentration-factor vector (one entry per fluid, summing to
// 1). The type and its Mix/Split primitives are shared with the closed-loop
// runtime (internal/runtime), whose checkpoint sensors propagate exactly
// this model through the live execution.
type Droplet struct {
	Volume float64
	CF     []float64
}

// Fresh returns a unit droplet of pure fluid i over n fluids, with the given
// relative volume error applied.
func Fresh(fluid, n int, volErr float64) Droplet {
	cf := make([]float64, n)
	cf[fluid] = 1
	return Droplet{Volume: 1 + volErr, CF: cf}
}

// Mix merges two droplets: volumes add, concentrations blend in proportion
// to the actual volumes.
func Mix(a, b Droplet) Droplet {
	v := a.Volume + b.Volume
	cf := make([]float64, len(a.CF))
	for i := range cf {
		cf[i] = (a.Volume*a.CF[i] + b.Volume*b.CF[i]) / v
	}
	return Droplet{Volume: v, CF: cf}
}

// Split performs a (1:1) split with relative imbalance eps: the halves get
// volumes v/2·(1+eps) and v/2·(1−eps). Splitting preserves concentration;
// the halves share the parent's CF vector.
func Split(d Droplet, eps float64) (Droplet, Droplet) {
	return Droplet{Volume: d.Volume / 2 * (1 + eps), CF: d.CF},
		Droplet{Volume: d.Volume / 2 * (1 - eps), CF: d.CF}
}

// LinfError returns the L∞ deviation of the droplet's CF vector from the
// wanted concentrations — the quantity a checkpoint sensor thresholds.
func (d Droplet) LinfError(want []float64) float64 {
	worst := 0.0
	for i := range want {
		if e := math.Abs(d.CF[i] - want[i]); e > worst {
			worst = e
		}
	}
	return worst
}

// Simulate propagates volumetric errors through the forest.
func Simulate(f *forest.Forest, p Params) (*Report, error) {
	if p.Trials == 0 {
		p.Trials = 1000
	}
	if p.Trials < 0 || p.SplitImbalance < 0 || p.SplitImbalance >= 0.5 ||
		p.DispenseError < 0 || p.DispenseError >= 0.5 {
		return nil, ErrBadParams
	}
	n := f.Base.Target.N()

	// Ideal CF of each tree's target.
	ideal := make(map[int][]float64, len(f.Trees))
	for _, tree := range f.Trees {
		want := tree.Want
		if want.IsZero() {
			want = f.Base.Target.Vector()
		}
		ideal[tree.Index] = want.Floats()
	}

	rng := rand.New(rand.NewSource(p.Seed))
	uniform := func(mag float64) float64 { return (2*rng.Float64() - 1) * mag }

	var errs []float64
	rep := &Report{Trials: p.Trials, MinVolume: 1e18, MaxVolume: -1e18}
	for trial := 0; trial < p.Trials; trial++ {
		// outputs[taskID] holds the task's two droplets; handed to
		// consumers in order, leftovers are targets/waste.
		outputs := make([][]Droplet, len(f.Tasks))
		take := func(src forest.Source) Droplet {
			if src.Kind == forest.Input {
				return Fresh(src.Fluid, n, uniform(p.DispenseError))
			}
			outs := outputs[src.Task.ID]
			d := outs[0]
			outputs[src.Task.ID] = outs[1:]
			return d
		}
		for _, t := range f.Tasks {
			merged := Mix(take(t.In[0]), take(t.In[1]))
			hi, lo := Split(merged, uniform(p.SplitImbalance))
			if p.OrderedHandoff {
				if hi.Volume < lo.Volume {
					hi, lo = lo, hi
				}
			} else if rng.Int63()&1 == 1 {
				hi, lo = lo, hi
			}
			outputs[t.ID] = []Droplet{hi, lo}
		}
		// Collect target droplets: the unconsumed outputs of tree roots.
		for _, tree := range f.Trees {
			want := ideal[tree.Index]
			for _, d := range outputs[tree.Root.ID] {
				errs = append(errs, d.LinfError(want))
				if d.Volume < rep.MinVolume {
					rep.MinVolume = d.Volume
				}
				if d.Volume > rep.MaxVolume {
					rep.MaxVolume = d.Volume
				}
				if trial == 0 {
					rep.Targets++
				}
			}
		}
	}
	if len(errs) == 0 {
		return nil, fmt.Errorf("errormodel: forest emits no target droplets")
	}
	sort.Float64s(errs)
	var sum float64
	for _, e := range errs {
		sum += e
	}
	rep.MeanErr = sum / float64(len(errs))
	rep.MaxErr = errs[len(errs)-1]
	rep.P95Err = nearestRank(errs, 0.95)
	if p.KeepErrors {
		rep.Errors = errs
	}
	return rep, nil
}

// nearestRank returns the q-quantile of a sorted sample by the nearest-rank
// method: the ⌈q·n⌉-th smallest value, clamped into the sample. Unlike the
// truncating index n·q this never reads past the end and degrades sensibly
// on tiny samples (a single observation is every quantile of itself).
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// RoundingErrorBound returns the paper's analytic bound on the CF error
// introduced by approximating the target ratio at accuracy level d: at most
// 1/2^d per constituent (§2.1).
func RoundingErrorBound(d int) float64 {
	return 1 / float64(int64(1)<<uint(d))
}
