// Error-aware base-graph selection. The DAC 2014 planner optimizes cycles,
// waste and storage but assumes a perfect chip; under split-volumetric
// noise different base graphs of the same target degrade very differently
// (deep dilution chains amplify imbalance, shallow balanced trees damp it).
// When Config.ErrorPolicy is set, the engine scores every candidate base
// graph by two numbers: the total cycles of its multi-pass plan, counted on
// the scheduling kernel over the same pass layout the planner walks but
// with no slab, audit or cache entry (and memoised in the plan cache's
// totals table), and the emitted CF-error bound of the closed-form interval
// propagation of internal/errormodel over the candidate's base graph. It
// picks the candidate minimizing the expected error among those within the
// configured cycle budget and plans that winner alone, through the cache
// as an error-blind request would — trading schedule length for robustness
// explicitly instead of ignoring the trade-off.
package stream

import (
	"context"
	"fmt"
	"math"

	"repro/internal/errormodel"
	"repro/internal/mixgraph"
	"repro/internal/obs"
)

// CandidateScore records how one candidate base graph fared in an
// error-aware selection.
type CandidateScore struct {
	// Algorithm names the candidate's base algorithm ("MM", "RMA", ...).
	Algorithm string
	// Cycles is the candidate's total multi-pass schedule length.
	Cycles int
	// Worst and Expected are the candidate's analytic CF-error bound and
	// expected-magnitude estimate over all emitted targets (the worst pass
	// governs).
	Worst, Expected float64
	// Admissible says the candidate stayed within the cycle budget;
	// Selected marks the winner.
	Admissible, Selected bool
}

// Selection summarises an error-aware plan selection: which base graph won
// and how every candidate scored.
type Selection struct {
	// Algorithm is the winning base algorithm.
	Algorithm string
	// Predicted is the winner's analytic error interval over the emitted
	// targets.
	Predicted errormodel.Interval
	// CycleLimit is the admission ceiling the cycle budget produced.
	CycleLimit int
	// Candidates lists every scored candidate, in candidate order.
	Candidates []CandidateScore
}

// runErrorAware is the ErrorPolicy branch of RunCtx: score every candidate
// base graph by its total cycles and analytic CF-error interval, pick the
// admissible candidate with the lowest expected error (ties: fewer cycles,
// then candidate order — the caller's base graph first), and plan that
// winner alone.
func runErrorAware(ctx context.Context, cfg Config, demand int) (*Result, error) {
	pol := cfg.ErrorPolicy
	if err := pol.Validate(); err != nil {
		return nil, fmt.Errorf("stream: error policy: %w", err)
	}
	// Candidates are scored and the winner planned error-blind: plans are
	// policy-independent pure functions of (graph, demand, resources), so
	// the winner shares cache entries with error-blind requests for the
	// same spec.
	plain := cfg
	plain.ErrorPolicy = nil
	plain.Candidates = nil

	cands := candidateGraphs(cfg)
	sel := &Selection{Candidates: make([]CandidateScore, len(cands))}
	minCycles := 0
	for i, g := range cands {
		c := plain
		c.Base = g
		cycles, err := totalCycles(ctx, c, demand)
		if err == nil {
			// Check between candidates, as planning the candidate would
			// have before its first pass: a memoised total checks nothing.
			err = checkPass(ctx, 1)
		}
		if err != nil {
			return nil, fmt.Errorf("stream: error-aware candidate %s: %w", g.Algorithm, err)
		}
		// Every pass's forest grows from g and every task carries its base
		// node's interval (DESIGN §14), so one pass over g scores the plan.
		iv, err := errormodel.AnalyzeRoot(g, pol.Params)
		if err != nil {
			return nil, fmt.Errorf("stream: error-aware candidate %s: %w", g.Algorithm, err)
		}
		sel.Candidates[i] = CandidateScore{
			Algorithm: g.Algorithm,
			Cycles:    cycles,
			Worst:     iv.Worst,
			Expected:  iv.Expected,
		}
		if minCycles == 0 || cycles < minCycles {
			minCycles = cycles
		}
	}
	// Admission: within (1+slack) of the cycle-optimal candidate. The limit
	// rounds up so slack fractions of a cycle never exclude the optimum's
	// own ties; a slack too large for an int admits every candidate.
	sel.CycleLimit = math.MaxInt
	if extra := pol.CycleSlack*float64(minCycles) + 0.999999; extra < math.MaxInt/2 {
		sel.CycleLimit = minCycles + int(extra)
	}
	cs, best := sel.Candidates, -1
	for i := range cs {
		if cs[i].Cycles > sel.CycleLimit {
			continue
		}
		cs[i].Admissible = true
		if best < 0 ||
			cs[i].Expected < cs[best].Expected ||
			(cs[i].Expected == cs[best].Expected && cs[i].Cycles < cs[best].Cycles) {
			best = i
		}
	}
	// The cycle-optimal candidate is always admissible, so best is set.
	win := &cs[best]
	win.Selected = true
	sel.Algorithm = win.Algorithm
	sel.Predicted = errormodel.Interval{Worst: win.Worst, Expected: win.Expected}

	plain.Base = cands[best]
	res, err := runPlain(ctx, plain, demand)
	if err != nil {
		return nil, fmt.Errorf("stream: error-aware candidate %s: %w", win.Algorithm, err)
	}
	if res.TotalCycles != win.Cycles {
		return nil, fmt.Errorf("stream: error-aware candidate %s planned %d cycles, scored %d", win.Algorithm, res.TotalCycles, win.Cycles)
	}
	res.Config.ErrorPolicy = cfg.ErrorPolicy
	res.Config.Candidates = cfg.Candidates
	res.Selection = sel
	obs.Inc("stream.error_aware.selections")
	if obs.Tracing() {
		obs.Emit("stream.error_aware", map[string]any{
			"selected":    sel.Algorithm,
			"worst":       sel.Predicted.Worst,
			"expected":    sel.Predicted.Expected,
			"cycle_limit": sel.CycleLimit,
			"candidates":  len(sel.Candidates),
		})
	}
	return res, nil
}

// totalCycles is the total schedule length runPlain gives demand under
// cfg, without planning it: it comes from cfg.Cache's totals table or, on
// a miss, from passLayout with every pass counted on the kernel
// (countPass), which builds no slab, audits nothing and caches only the
// total.
func totalCycles(ctx context.Context, cfg Config, demand int) (int, error) {
	return cfg.Cache.Total(scanKey(cfg, demand), func() (int, error) {
		l, err := passLayout(ctx, cfg, demand, func(d int) (passCost, error) { return countPass(cfg, d) })
		return l.cycles(), err
	})
}

// candidateGraphs lists the base graphs an error-aware run considers: the
// configured base first, then Config.Candidates, deduplicated by graph
// fingerprint (two algorithms may build an identical graph for shallow
// targets).
func candidateGraphs(cfg Config) []*mixgraph.Graph {
	out := []*mixgraph.Graph{cfg.Base}
	seen := map[uint64]bool{cfg.Base.Fingerprint(): true}
	for _, g := range cfg.Candidates {
		if g == nil || seen[g.Fingerprint()] {
			continue
		}
		seen[g.Fingerprint()] = true
		out = append(out, g)
	}
	return out
}
