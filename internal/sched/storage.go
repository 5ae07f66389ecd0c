package sched

import (
	"cmp"
	"slices"

	"repro/internal/forest"
)

// StorageProfile implements Counting_Storage_Units (Algorithm 3 of the
// paper) on droplet lifetimes: a droplet produced by a task finishing at
// cycle t_n and consumed by a task running at cycle t_c sits in an on-chip
// storage cell during cycles t_n+1 .. t_c-1. Target droplets are emitted and
// discarded wastes are routed to the waste reservoir immediately, so neither
// occupies storage. Hand-offs are counted by consumer, over the window's
// tasks: a droplet made before the window is stored from cycle 1. The
// returned slice is indexed by cycle (1..Tc); index 0 is unused and zero.
func StorageProfile(s *Schedule) []int {
	profile := make([]int, s.Cycles+1)
	for i, t := range s.Tasks() {
		consumed := s.Slots[i].Cycle
		for _, src := range t.In {
			if src.Kind == forest.FromTask {
				for c := s.At(src.Task).Cycle + 1; c < consumed; c++ {
					profile[c]++
				}
			}
		}
	}
	return profile
}

// StorageUnits returns q, the number of on-chip storage units the schedule
// needs: the peak of the storage profile.
func StorageUnits(s *Schedule) int {
	max := 0
	for _, v := range StorageProfile(s) {
		if v > max {
			max = v
		}
	}
	return max
}

// BaselineStorage returns the paper's closed-form estimate for the storage
// units a repeated-baseline pass needs when a depth-d base tree is scheduled
// with mc mixers: q_r = d - (floor(log2 mc) + 1), clamped at zero.
func BaselineStorage(d, mc int) int {
	log := 0
	for v := mc; v > 1; v >>= 1 {
		log++
	}
	q := d - (log + 1)
	if q < 0 {
		return 0
	}
	return q
}

// StoredDroplet describes one storage-cell occupation interval, for layout
// binding and transport accounting.
type StoredDroplet struct {
	// Producer is the task whose output droplet is stored.
	Producer *forest.Task
	// Consumer is the task that finally picks the droplet up.
	Consumer *forest.Task
	// From is the first cycle the droplet sits in storage (producer cycle
	// + 1); To is the last (consumer cycle - 1). From > To means the droplet
	// went straight from mixer to mixer and never touched storage.
	From, To int
}

// StoredDroplets lists every droplet hand-off to a task of the window with
// its storage interval, ordered by producer and then consumer ID.
func StoredDroplets(s *Schedule) []StoredDroplet {
	var out []StoredDroplet
	for i, t := range s.Tasks() {
		for _, src := range t.In {
			if src.Kind == forest.FromTask {
				out = append(out, StoredDroplet{
					Producer: src.Task,
					Consumer: t,
					From:     int(s.At(src.Task).Cycle) + 1,
					To:       int(s.Slots[i].Cycle) - 1,
				})
			}
		}
	}
	slices.SortStableFunc(out, func(a, b StoredDroplet) int {
		return cmp.Or(cmp.Compare(a.Producer.ID, b.Producer.ID), cmp.Compare(a.Consumer.ID, b.Consumer.ID))
	})
	return out
}
