package sched

import (
	"fmt"
	"slices"

	"repro/internal/forest"
	"repro/internal/mixgraph"
	"repro/internal/obs"
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
	return run(f, mc, "MMS", &fifoQueue{}, 0)
}

// MMSFrom schedules only the tasks with ID >= firstTask, treating earlier
// tasks as completed before cycle 1 — the incremental window of a
// pool-persistent demand-driven engine (droplets pooled by earlier windows
// are available immediately and occupy storage until consumed).
func MMSFrom(f *forest.Forest, mc, firstTask int) (*Schedule, error) {
	return run(f, mc, "MMS", &fifoQueue{}, firstTask)
}

// SRSFrom is the SRS counterpart of MMSFrom.
func SRSFrom(f *forest.Forest, mc, firstTask int) (*Schedule, error) {
	return run(f, mc, "SRS", newSRSQueue(), firstTask)
}

// OMS schedules a single base mixing graph on mc mixers following Luo and
// Akella's optimal mix scheduling. For unit-time tasks on an in-tree,
// highest-level-first list scheduling (Hu's algorithm) attains the optimal
// makespan, and a base mixing tree is exactly such an in-tree; package tests
// certify optimality against exhaustive search. The graph is scheduled as a
// demand-2 forest (one pass, two target droplets).
func OMS(base *mixgraph.Graph, mc int) (*Schedule, error) {
	f, err := forest.Build(base, 2)
	if err != nil {
		return nil, err
	}
	return run(f, mc, "OMS", newHuQueue(), 0)
}

// Mlb returns the minimum number of mixers that lets the base graph complete
// in its critical-path time (the paper's mixer count for "fastest
// completion", e.g. 3 for the PCR MM tree). The search increases the mixer
// count until OMS reaches the critical path; the maximum positional-level
// width always suffices (scheduling every mix at its positional level is
// feasible), so the loop terminates there. It starts at ⌈tasks/cp⌉, since
// fewer mixers cannot even run every mix within cp cycles, and it builds the
// demand-2 forest once in packed form and runs the packed Hu rule per
// candidate, which TestKernelHuMatchesOMS certifies slot for slot against
// OMS (TestMlbMatchesLegacySearch checks the whole search).
func Mlb(base *mixgraph.Graph) int {
	cp := base.Root.Level
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

// queue abstracts the ready-task policy of a cycle-stepped list scheduler.
type queue interface {
	// add offers tasks that became schedulable this cycle. The slice is the
	// engine's reusable release buffer: policies may reorder it in place but
	// must not retain it past the call.
	add(tasks []*forest.Task)
	// pick removes and returns up to mc tasks to run this cycle.
	pick(mc int) []*forest.Task
	// len reports how many tasks are waiting.
	len() int
	// reserve pre-grows internal storage for n total tasks.
	reserve(n int)
}

// fifoQueue is the MMS policy: FIFO overall, each batch pre-sorted by
// ascending level (then task ID for determinism).
type fifoQueue struct {
	items []*forest.Task
}

// levelThenID is the shared batch order: ascending level, ID as tie-break.
// The comparator is a total order (task IDs are unique), so any correct
// sort has exactly one fixed point: every queue policy in this package
// breaks its final tie on ID, which is what makes repeated schedules of the
// same forest byte-identical (TestScheduleDeterminism).
func levelThenID(a, b *forest.Task) int {
	if a.Level != b.Level {
		return a.Level - b.Level
	}
	return a.ID - b.ID
}

func (q *fifoQueue) add(tasks []*forest.Task) {
	// Sorting the engine's release buffer in place (instead of copying it
	// first) keeps the per-cycle cost at one append into the pre-reserved
	// ring; the engine resets the buffer right after this call.
	slices.SortFunc(tasks, levelThenID)
	q.items = append(q.items, tasks...)
}

func (q *fifoQueue) pick(mc int) []*forest.Task {
	n := mc
	if n > len(q.items) {
		n = len(q.items)
	}
	out := q.items[:n]
	q.items = q.items[n:]
	return out
}

func (q *fifoQueue) len() int { return len(q.items) }

func (q *fifoQueue) reserve(n int) {
	if cap(q.items) < n {
		q.items = make([]*forest.Task, 0, n)
	}
}

// run is the shared cycle-stepped engine: at every cycle it releases tasks
// whose producers have all finished, lets the policy pick up to mc of them,
// and assigns mixers in increasing index order (as Algorithms 1 and 2 do).
// Tasks with ID < firstTask are treated as completed before cycle 1: their
// output droplets are available immediately and they receive no assignment.
func run(f *forest.Forest, mc int, name string, q queue, firstTask int) (*Schedule, error) {
	if mc < 1 {
		return nil, ErrNoMixers
	}
	if firstTask < 0 || firstTask > len(f.Tasks) {
		return nil, fmt.Errorf("sched: first task %d outside [0, %d]", firstTask, len(f.Tasks))
	}
	s := &Schedule{
		Forest:    f,
		Mixers:    mc,
		Algorithm: name,
		Slots:     make([]Assignment, len(f.Tasks)),
		FirstTask: firstTask,
	}
	pendingPreds := make([]int, len(f.Tasks))
	window := len(f.Tasks) - firstTask
	q.reserve(window)
	initial := make([]*forest.Task, 0, window)
	for _, t := range f.Tasks {
		if t.ID < firstTask {
			continue
		}
		for _, src := range t.In {
			if src.Kind == forest.FromTask && src.Task.ID >= firstTask {
				pendingPreds[t.ID]++
			}
		}
		if pendingPreds[t.ID] == 0 {
			initial = append(initial, t)
		}
	}
	q.add(initial)

	remaining := window
	releasedNext := initial[len(initial):] // reuse the spare capacity
	for t := 1; remaining > 0; t++ {
		batch := q.pick(mc)
		if len(batch) == 0 {
			return nil, ErrDeadlock
		}
		for i, task := range batch {
			s.Slots[task.ID] = Assignment{Cycle: t, Mixer: i + 1}
			remaining--
			for _, c := range task.Consumers() {
				if c.ID < firstTask {
					continue // consumed in an earlier window
				}
				pendingPreds[c.ID]--
				if pendingPreds[c.ID] == 0 {
					releasedNext = append(releasedNext, c)
				}
			}
		}
		s.Cycles = t
		q.add(releasedNext)
		releasedNext = releasedNext[:0]
	}
	if obs.Enabled() {
		obs.Inc("sched.schedules")
		obs.Observe("sched.cycles", float64(s.Cycles))
		if s.Cycles > 0 {
			scheduled := len(f.Tasks) - firstTask
			obs.Observe("sched.mixer_utilization", float64(scheduled)/(float64(mc)*float64(s.Cycles)))
		}
	}
	return s, nil
}
