package sched

import (
	"sync"

	"repro/internal/forest"
	"repro/internal/mixgraph"
)

// MMS schedules a mixing forest on mc mixers with M_Mixers_Schedule
// (Algorithm 1 of the paper): a cycle-stepped list scheduler whose ready
// queue is FIFO with each cycle's newly schedulable tasks enqueued in
// ascending level order ("ordered from level l upwards"). Ascending level is
// Hu's longest-remaining-path priority, so MMS is the latency-oriented
// scheme.
//
// The paper's pseudo-code stops enqueuing new tasks once the level counter
// passes d; read literally that strands tasks that only become ready during
// the drain phase (cross-tree dependences), so — clearly the intent — newly
// ready tasks keep being enqueued every cycle until the forest is complete.
func MMS(f *forest.Forest, mc int) (*Schedule, error) {
	return schedule(f, mc, "MMS", policyMMS)
}

// SRS schedules a mixing forest on mc mixers with Storage_Reduced_Scheduling
// (Algorithm 2 of the paper). Schedulable tasks are kept in two priority
// queues:
//
//   - Qint holds Type-A and Type-B tasks (at least one input droplet comes
//     from another mix — stalling them keeps droplets in storage), ordered
//     by descending level: finishing high tasks early shortens the forest.
//   - Qleaf holds Type-C tasks (both inputs fresh from reservoirs — stalling
//     them costs no storage), ordered by ascending level.
//
// Each cycle drains Qint first and only gives leftover mixers to Qleaf,
// using the paper's counting rule: Qleaf supplies at most
// max(0, Mc - |Qint before dequeue|) tasks. Compared with MMS this can
// lengthen Tc slightly but needs fewer on-chip storage units.
func SRS(f *forest.Forest, mc int) (*Schedule, error) {
	return schedule(f, mc, "SRS", policySRS)
}

// OMS schedules a single base mixing graph on mc mixers following Luo and
// Akella's optimal mix scheduling. For unit-time tasks on an in-tree,
// highest-level-first list scheduling (Hu's algorithm) attains the optimal
// makespan, and a base mixing tree is exactly such an in-tree; package tests
// certify optimality against exhaustive search. The graph is scheduled as a
// demand-2 forest (one pass, two target droplets) under Hu's rule, as Mlb
// runs it.
func OMS(base *mixgraph.Graph, mc int) (*Schedule, error) {
	f, err := forest.Build(base, 2)
	if err != nil {
		return nil, err
	}
	return schedule(f, mc, "OMS", policyHu)
}

// kernels pools the scheduling kernels behind the pointer-forest entry
// points; a Materialized schedule owns its slots, so a kernel is free for
// reuse as soon as it returns.
var kernels = sync.Pool{New: func() any { return new(Kernel) }}

// schedule packs f, runs the kernel with the given policy, and materializes
// the result as a Schedule over f. It serves the pointer-forest entry
// points: core.PlanMulti's multi-target forests, the exact-scheduler
// comparisons of experiment E5, and the repeated baseline's OMS.
func schedule(f *forest.Forest, mc int, algo string, p policy) (*Schedule, error) {
	pf, err := forest.Pack(f)
	if err != nil {
		return nil, err
	}
	k := kernels.Get().(*Kernel)
	defer kernels.Put(k)
	if _, err := k.run(pf, mc, algo, p, 0, unbounded); err != nil {
		return nil, err
	}
	return k.Materialize(f), nil
}

// Mlb returns the minimum number of mixers that lets the base graph complete
// in its critical-path time (the paper's mixer count for "fastest
// completion", e.g. 3 for the PCR MM tree). The search increases the mixer
// count until OMS reaches the critical path; the maximum positional-level
// width always suffices (scheduling every mix at its positional level is
// feasible), so the loop terminates there. It starts at ⌈tasks/cp⌉, since
// fewer mixers cannot even run every mix within cp cycles, and it builds the
// demand-2 forest once in packed form and runs the Hu rule per candidate
// (TestMlbMatchesLegacySearch checks the whole search against the search
// from one mixer up).
func Mlb(base *mixgraph.Graph) int {
	cp := int(base.Root.Level)
	upper := 1
	for _, w := range base.LevelWidths() {
		if w > upper {
			upper = w
		}
	}
	f, err := forest.BuildPacked(forest.NewPackedBuilder(base), base, 2)
	if err != nil {
		return upper
	}
	var k Kernel
	for mc := max(1, (len(f.Tasks)+cp-1)/cp); mc < upper; mc++ {
		if k.Hu(f, mc) == nil && k.Cycles() == cp {
			return mc
		}
	}
	return upper
}
