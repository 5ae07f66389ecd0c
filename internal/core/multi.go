package core

import (
	"fmt"

	"repro/internal/forest"
	"repro/internal/mixgraph"
	"repro/internal/ratio"
	"repro/internal/sched"
	"repro/internal/stream"
)

// Multi-target planning (an SDMT-flavoured extension; see forest/multi.go):
// several mixtures over the same fluid set are prepared in one combined
// forest whose waste pool is shared across targets.

// MultiRequest asks for droplets of one target.
type MultiRequest struct {
	// Target is the mixture (same fluid universe across all requests).
	Target ratio.Ratio
	// Demand is the number of droplets wanted.
	Demand int
}

// MultiPlan is a scheduled multi-target preparation plan.
type MultiPlan struct {
	// Requests echoes the input.
	Requests []MultiRequest
	// Bases are the per-target base graphs.
	Bases []*mixgraph.Graph
	// Forest is the combined mixing forest.
	Forest *forest.Forest
	// Schedule is its mixer/time assignment.
	Schedule *sched.Schedule
	// Storage is the measured storage-unit requirement.
	Storage int
	// Emitted reports droplets per target (parallel to Requests).
	Emitted []int
	// IndependentInputs is what separate single-target forests would have
	// consumed; Forest.Stats().InputTotal is never larger.
	IndependentInputs int64
}

// PlanMulti builds and schedules a combined plan for several targets.
// mixers = 0 resolves to the largest Mlb across the targets' MM trees.
func PlanMulti(reqs []MultiRequest, alg Algorithm, mixers int, scheduler stream.Scheduler) (*MultiPlan, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("core: no targets")
	}
	bases := make([]*mixgraph.Graph, len(reqs))
	demands := make([]int, len(reqs))
	var independent int64
	for i, rq := range reqs {
		base, err := alg.Build(rq.Target)
		if err != nil {
			return nil, fmt.Errorf("core: target %d: %w", i, err)
		}
		bases[i] = base
		demands[i] = rq.Demand
		single, err := forest.Build(base, rq.Demand)
		if err != nil {
			return nil, err
		}
		independent += single.Stats().InputTotal
	}
	if mixers == 0 {
		for _, rq := range reqs {
			m, err := PaperMixers(rq.Target)
			if err != nil {
				return nil, err
			}
			mixers = max(mixers, m)
		}
	}
	f, err := forest.BuildMulti(bases, demands)
	if err != nil {
		return nil, err
	}
	s, err := scheduler.Schedule(f, mixers)
	if err != nil {
		return nil, err
	}
	return &MultiPlan{
		Requests:          reqs,
		Bases:             bases,
		Forest:            f,
		Schedule:          s,
		Storage:           sched.StorageUnits(s),
		Emitted:           forest.TargetsOf(f, bases),
		IndependentInputs: independent,
	}, nil
}
