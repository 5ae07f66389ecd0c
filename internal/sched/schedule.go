// Package sched implements the scheduling layer of the DAC 2014
// droplet-streaming paper: the optimal single-tree scheduler OMS (Luo-Akella,
// realised as Hu's level algorithm, provably optimal for unit-time in-trees),
// the forest schedulers MMS (Algorithm 1) and SRS (Algorithm 2), the storage
// accounting of Algorithm 3, and Gantt-chart rendering (Fig. 4).
//
// A schedule assigns every mix-split task of a mixing forest a time-cycle
// (1-based) and an on-chip mixer (1..Mc). All (1:1) mix-split operations are
// identical and take one time-cycle (paper §2.2); a droplet produced in
// cycle t is usable from cycle t+1 on.
package sched

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/forest"
)

// Assignment places one task on a mixer at a time-cycle. Both fields are
// bounded by the task count, which the packed arena's int32 indices bound
// (forest.ErrArenaOverflow), so an Assignment is 8 bytes; every cached
// plan holds one per task.
type Assignment struct {
	// Cycle is the 1-based time-cycle the mix-split executes in.
	Cycle int32
	// Mixer is the 1-based on-chip mixer index (M1, M2, ... in the paper).
	Mixer int32
}

// Schedule is a complete mixer/time assignment for a mixing forest, or for
// one window of it.
//
// A persistent demand-driven engine schedules each batch as a window of one
// forest that keeps growing across batches: the window runs from FirstTask
// to the end of Forest, the forest as it stood when the batch committed,
// materialized for that batch alone from its plan's slab. Tasks before the
// window were completed by earlier batches before cycle 1. Every reader
// reaches the window through Tasks and At and counts hand-offs by
// consumer. A plain schedule's window is the whole forest.
type Schedule struct {
	// Forest is the scheduled task graph.
	Forest *forest.Forest
	// Mixers is the number of on-chip mixers Mc the schedule uses.
	Mixers int
	// Algorithm names the scheduling scheme ("MMS", "SRS", "OMS").
	Algorithm string
	// Slots holds the window's assignments: Slots[i] places task
	// FirstTask+i.
	Slots []Assignment
	// Cycles is the time of completion Tc (the largest assigned cycle).
	Cycles int
	// FirstTask is the ID of the window's first task; plain schedules have
	// FirstTask 0.
	FirstTask int
}

// Tasks returns the tasks the schedule covers, its window, in forest order.
func (s *Schedule) Tasks() []*forest.Task {
	return s.Forest.Tasks[s.FirstTask : s.FirstTask+len(s.Slots)]
}

// At returns the assignment of task t. A task outside the window has the
// zero Assignment: one before it completed before cycle 1.
func (s *Schedule) At(t *forest.Task) Assignment {
	if i := t.ID - s.FirstTask; i >= 0 && i < len(s.Slots) {
		return s.Slots[i]
	}
	return Assignment{}
}

// Scheduling errors.
var (
	ErrNoMixers = errors.New("sched: need at least one mixer")
	ErrDeadlock = errors.New("sched: scheduler made no progress (cyclic forest?)")
)

// Validate checks the schedule against the physical constraints of the chip:
// one slot per task of the window, each scheduled exactly once; a droplet
// never consumed before the cycle after it was produced (droplets of tasks
// before the window are there from cycle 1); at most Mc concurrent
// mix-splits; no mixer running two mixes in one cycle; and Tc consistent
// with the assignments. Errors are reported for the first offending task in
// forest order. The bookkeeping lives in slices indexed by cycle, grown
// when a slot lies past Tc, so a clean run allocates the same few objects
// at any forest size.
func (s *Schedule) Validate() error {
	if n := len(s.Forest.Tasks) - s.FirstTask; s.FirstTask < 0 || len(s.Slots) != n {
		return fmt.Errorf("sched: %d slots for %d tasks", len(s.Slots), n)
	}
	tasks := s.Tasks()
	clashAt, clashWith := s.firstDoubleBooking()
	maxCycle := 0
	perCycle := make([]int, s.Cycles+1)
	for i, t := range tasks {
		a := s.Slots[i]
		cycle := int(a.Cycle)
		if a.Cycle < 1 {
			return fmt.Errorf("sched: task %d unscheduled or at invalid cycle %d", t.ID, a.Cycle)
		}
		if a.Mixer < 1 || int(a.Mixer) > s.Mixers {
			return fmt.Errorf("sched: task %d on invalid mixer %d (Mc=%d)", t.ID, a.Mixer, s.Mixers)
		}
		if i == clashAt {
			return fmt.Errorf("sched: mixer %d double-booked at cycle %d (tasks %d and %d)",
				a.Mixer, a.Cycle, clashWith, t.ID)
		}
		if cycle >= len(perCycle) {
			perCycle = append(perCycle, make([]int, cycle+1-len(perCycle))...)
		}
		perCycle[cycle]++
		if perCycle[cycle] > s.Mixers {
			return fmt.Errorf("sched: more than %d mixes at cycle %d", s.Mixers, a.Cycle)
		}
		for _, src := range t.In {
			if src.Kind == forest.FromTask {
				if p := s.At(src.Task); p.Cycle >= a.Cycle {
					return fmt.Errorf("sched: task %d at cycle %d consumes task %d finishing at cycle %d",
						t.ID, a.Cycle, src.Task.ID, p.Cycle)
				}
			}
		}
		maxCycle = max(maxCycle, cycle)
	}
	if s.Cycles != maxCycle {
		return fmt.Errorf("sched: Tc=%d but max assigned cycle is %d", s.Cycles, maxCycle)
	}
	return nil
}

// placed reports whether window slot a is one Validate's per-task checks
// accept up to the double-booking test: at a cycle >= 1, on a mixer in
// 1..Mc.
func (s *Schedule) placed(a Assignment) bool {
	return a.Cycle >= 1 && a.Mixer >= 1 && int(a.Mixer) <= s.Mixers
}

// firstDoubleBooking finds the first window slot, in forest order, whose
// (cycle, mixer) an earlier slot already holds. It returns that slot's
// position in the window and the earlier task's ID, or (-1, -1) when no
// mixer is double-booked. Placed slots are counting-sorted into per-cycle
// buckets (forest order kept inside each) and every bucket is sorted by
// mixer, so the search costs O(tasks + cycles) memory however many mixers
// the schedule declares, and no map.
func (s *Schedule) firstDoubleBooking() (at, with int) {
	// end[c] counts cycle c's slots, then (as prefix sums) marks where its
	// bucket of order ends. The fill walks the slots backwards and
	// decrements end[c] per slot, so afterwards end[c] is where bucket c
	// starts and every bucket lists its slots in forest order.
	end := make([]int32, s.Cycles+1)
	placed := 0
	for _, a := range s.Slots {
		if s.placed(a) {
			if int(a.Cycle) >= len(end) {
				end = append(end, make([]int32, int(a.Cycle)+1-len(end))...)
			}
			end[a.Cycle]++
			placed++
		}
	}
	for c := 1; c < len(end); c++ {
		end[c] += end[c-1]
	}
	order := make([]int32, placed)
	for i := len(s.Slots) - 1; i >= 0; i-- {
		if a := s.Slots[i]; s.placed(a) {
			end[a.Cycle]--
			order[end[a.Cycle]] = int32(i)
		}
	}
	mixer := func(i int32) int32 { return s.Slots[i].Mixer }
	byMixer := func(x, y int32) int { return cmp.Or(cmp.Compare(mixer(x), mixer(y)), cmp.Compare(x, y)) }
	at, with = -1, -1
	hi := int32(placed) // bucket c ends where bucket c+1 starts
	for c := len(end) - 1; c >= 1; c-- {
		lo := end[c]
		bucket := order[lo:hi]
		hi = lo
		if len(bucket) < 2 {
			continue
		}
		slices.SortFunc(bucket, byMixer)
		for k := 1; k < len(bucket); k++ {
			// In a run of equal mixers the first entry is the occupant and
			// the second the earliest clash; only that second entry can
			// beat the running minimum, so its predecessor is the occupant.
			if pos := int(bucket[k]); mixer(bucket[k]) == mixer(bucket[k-1]) && (at < 0 || pos < at) {
				at, with = pos, s.FirstTask+int(bucket[k-1])
			}
		}
	}
	return at, with
}

// CriticalPathBound returns the precedence lower bound on Tc: the length of
// the longest dependency chain in the forest.
func CriticalPathBound(f *forest.Forest) int {
	depth := make([]int, len(f.Tasks))
	best := 0
	for _, t := range f.Tasks {
		d := 1
		for _, src := range t.In {
			if src.Kind == forest.FromTask {
				if v := depth[src.Task.ID] + 1; v > d {
					d = v
				}
			}
		}
		depth[t.ID] = d
		if d > best {
			best = d
		}
	}
	return best
}

// LowerBound returns max(critical path, ⌈Tms/Mc⌉), the classic makespan
// lower bound for unit tasks on Mc identical mixers.
func LowerBound(f *forest.Forest, mc int) int {
	lb := CriticalPathBound(f)
	if work := (len(f.Tasks) + mc - 1) / mc; work > lb {
		lb = work
	}
	return lb
}
