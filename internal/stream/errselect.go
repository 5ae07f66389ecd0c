// Error-aware base-graph selection. The DAC 2014 planner optimizes cycles,
// waste and storage but assumes a perfect chip; under split-volumetric
// noise different base graphs of the same target degrade very differently
// (deep dilution chains amplify imbalance, shallow balanced trees damp it).
// When Config.ErrorPolicy is set, the engine plans every candidate base
// graph, bounds each plan's emitted CF error with the closed-form interval
// propagation of internal/errormodel over the candidate's base graph, and
// picks the plan minimizing the expected error among those within the
// configured cycle budget — trading schedule length for robustness
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

// runErrorAware is the ErrorPolicy branch of RunCtx: plan every candidate
// base graph, score each plan's analytic CF-error interval, and return the
// admissible plan with the lowest expected error (ties: fewer cycles, then
// candidate order — the caller's base graph first).
func runErrorAware(ctx context.Context, cfg Config, demand int) (*Result, error) {
	pol := cfg.ErrorPolicy
	if err := pol.Validate(); err != nil {
		return nil, fmt.Errorf("stream: error policy: %w", err)
	}
	// Candidate plans run through the plain planner: plans themselves are
	// policy-independent pure functions of (graph, demand, resources), so
	// they share cache entries with error-blind requests for the same spec.
	plain := cfg
	plain.ErrorPolicy = nil
	plain.Candidates = nil

	cands := candidateGraphs(cfg)
	type scored struct {
		res *Result
		an  errormodel.Interval
	}
	plans := make([]scored, len(cands))
	sel := &Selection{Candidates: make([]CandidateScore, len(cands))}
	minCycles := 0
	for i, g := range cands {
		c := plain
		c.Base = g
		res, err := runPlain(ctx, c, demand)
		if err != nil {
			return nil, fmt.Errorf("stream: error-aware candidate %s: %w", g.Algorithm, err)
		}
		// Every pass's forest grows from g and every task carries its base
		// node's interval (DESIGN §14), so one pass over g scores the plan.
		an, err := errormodel.AnalyzeGraph(g, pol.Params)
		if err != nil {
			return nil, fmt.Errorf("stream: error-aware candidate %s: %w", g.Algorithm, err)
		}
		iv := errormodel.Interval{Worst: an.WorstTarget, Expected: an.ExpectedTarget}
		plans[i] = scored{res: res, an: iv}
		sel.Candidates[i] = CandidateScore{
			Algorithm: g.Algorithm,
			Cycles:    res.TotalCycles,
			Worst:     iv.Worst,
			Expected:  iv.Expected,
		}
		if minCycles == 0 || res.TotalCycles < minCycles {
			minCycles = res.TotalCycles
		}
	}
	// Admission: within (1+slack) of the cycle-optimal candidate. The limit
	// rounds up so slack fractions of a cycle never exclude the optimum's
	// own ties; a slack too large for an int admits every candidate.
	sel.CycleLimit = math.MaxInt
	if extra := pol.CycleSlack*float64(minCycles) + 0.999999; extra < math.MaxInt/2 {
		sel.CycleLimit = minCycles + int(extra)
	}
	best := -1
	for i := range plans {
		if plans[i].res.TotalCycles > sel.CycleLimit {
			continue
		}
		sel.Candidates[i].Admissible = true
		if best < 0 ||
			plans[i].an.Expected < plans[best].an.Expected ||
			(plans[i].an.Expected == plans[best].an.Expected &&
				plans[i].res.TotalCycles < plans[best].res.TotalCycles) {
			best = i
		}
	}
	// The cycle-optimal candidate is always admissible, so best is set.
	sel.Candidates[best].Selected = true
	sel.Algorithm = cands[best].Algorithm
	sel.Predicted = plans[best].an

	res := plans[best].res
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
