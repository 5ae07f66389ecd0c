package sched

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/forest"
)

// Exact computes a provably optimal (minimum-makespan) schedule of a mixing
// forest on mc mixers by dynamic programming over scheduled-task subsets.
// The state space is 2^n, so forests are capped at MaxExactTasks tasks; use
// it to certify the list schedulers on small instances (the OMS optimality
// tests do) and to measure their optimality gap (experiment E5).
const MaxExactTasks = 22

// ErrTooLarge reports a forest beyond the exact scheduler's reach.
var ErrTooLarge = errors.New("sched: forest too large for exact scheduling")

// ErrNonCanonicalForest reports a forest whose task IDs are not the dense
// canonical 0..n-1 enumeration forest.Build produces. The exact scheduler's
// subset DP indexes predecessor bitmasks by task ID, so a permuted or gappy
// ID space would silently map precedences onto the wrong tasks and certify a
// wrong "optimal" makespan; it must refuse such forests instead.
var ErrNonCanonicalForest = errors.New("sched: forest task IDs are not the canonical dense 0..n-1 enumeration")

// Exact returns an optimal schedule. The mixer assignment within each cycle
// follows increasing mixer indices, like the list schedulers.
func Exact(f *forest.Forest, mc int) (*Schedule, error) {
	if mc < 1 {
		return nil, ErrNoMixers
	}
	n := len(f.Tasks)
	if n > MaxExactTasks {
		return nil, fmt.Errorf("%w: %d tasks (max %d)", ErrTooLarge, n, MaxExactTasks)
	}
	// The DP below builds predecessor masks via 1 << src.Task.ID and writes
	// Slots[i] for task i: both assume the dense ID invariant Tasks[i].ID == i
	// that forest.Build guarantees (and forest.Validate checks). A permuted
	// forest would not crash — it would compute a confidently wrong optimum —
	// so validate up front and fail typed.
	for i, t := range f.Tasks {
		if t.ID != i {
			return nil, fmt.Errorf("%w: task at index %d has ID %d", ErrNonCanonicalForest, i, t.ID)
		}
	}
	preds := make([]uint32, n)
	for i, t := range f.Tasks {
		for _, src := range t.In {
			if src.Kind == forest.FromTask {
				if id := src.Task.ID; id < 0 || id >= n {
					return nil, fmt.Errorf("%w: task %d consumes task with out-of-range ID %d", ErrNonCanonicalForest, i, id)
				}
				preds[i] |= 1 << uint(src.Task.ID)
			}
		}
	}
	full := uint32(1)<<uint(n) - 1
	const inf = 1 << 30
	dp := make([]int32, full+1)
	choice := make([]uint32, full+1) // the batch scheduled last to reach mask
	for i := range dp {
		dp[i] = inf
	}
	dp[0] = 0
	for mask := uint32(0); mask <= full; mask++ {
		if dp[mask] == inf {
			continue
		}
		var ready uint32
		for i := 0; i < n; i++ {
			bit := uint32(1) << uint(i)
			if mask&bit == 0 && preds[i]&^mask == 0 {
				ready |= bit
			}
		}
		if ready == 0 {
			continue
		}
		for sub := ready; sub > 0; sub = (sub - 1) & ready {
			if bits.OnesCount32(sub) > mc {
				continue
			}
			next := mask | sub
			if dp[mask]+1 < dp[next] {
				dp[next] = dp[mask] + 1
				choice[next] = sub
			}
		}
	}
	if dp[full] == inf {
		return nil, ErrDeadlock
	}

	s := &Schedule{
		Forest:    f,
		Mixers:    mc,
		Algorithm: "EXACT",
		Slots:     make([]Assignment, n),
		Cycles:    int(dp[full]),
	}
	// Walk the choices backwards to recover per-cycle batches.
	for mask := full; mask != 0; {
		batch := choice[mask]
		cycle := int32(dp[mask])
		mixer := int32(1)
		for i := 0; i < n; i++ {
			if batch&(1<<uint(i)) != 0 {
				s.Slots[i] = Assignment{Cycle: cycle, Mixer: mixer}
				mixer++
			}
		}
		mask &^= batch
	}
	return s, nil
}
