package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/forest"
)

// TestValidateRejectsTamperedSchedules breaks every Schedule.Validate branch
// once, on a fresh MMS schedule of the D=8 PCR forest per case, and pins the
// exact message each one reports — including slots past Tc, which the
// per-cycle tables must grow to cover.
func TestValidateRejectsTamperedSchedules(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(s *Schedule)
		want   string
	}{
		{"slot count", func(s *Schedule) { s.Slots = s.Slots[:len(s.Slots)-1] },
			"sched: 10 slots for 11 tasks"},
		{"unscheduled task", func(s *Schedule) { s.Slots[3] = Assignment{} },
			"sched: task 3 unscheduled or at invalid cycle 0"},
		{"negative cycle", func(s *Schedule) { s.Slots[4].Cycle = -2 },
			"sched: task 4 unscheduled or at invalid cycle -2"},
		{"mixer zero", func(s *Schedule) { s.Slots[2].Mixer = 0 },
			"sched: task 2 on invalid mixer 0 (Mc=2)"},
		{"mixer past Mc", func(s *Schedule) { s.Slots[0] = Assignment{Cycle: 1, Mixer: 99} },
			"sched: task 0 on invalid mixer 99 (Mc=2)"},
		{"double-booked mixer", func(s *Schedule) {
			s.Slots[0] = Assignment{Cycle: 1, Mixer: 1}
			s.Slots[1] = Assignment{Cycle: 1, Mixer: 1}
		}, "sched: mixer 1 double-booked at cycle 1 (tasks 0 and 1)"},
		{"double booking keeps the first occupant", func(s *Schedule) {
			s.Slots[6] = s.Slots[0]
			s.Slots[9] = s.Slots[0]
		}, "sched: mixer 1 double-booked at cycle 1 (tasks 0 and 6)"},
		{"first double booking in task order", func(s *Schedule) {
			// The cycle-2 collision involves task 10, the cycle-4 one task
			// 9: task order, not cycle order, decides which is reported.
			s.Slots[10] = s.Slots[3]
			s.Slots[9] = s.Slots[8]
		}, "sched: mixer 2 double-booked at cycle 4 (tasks 8 and 9)"},
		{"double booking past Tc", func(s *Schedule) {
			s.Slots[8] = Assignment{Cycle: 40, Mixer: 2}
			s.Slots[9] = Assignment{Cycle: 40, Mixer: 2}
		}, "sched: mixer 2 double-booked at cycle 40 (tasks 8 and 9)"},
		{"precedence", func(s *Schedule) { s.Slots[9] = Assignment{Cycle: 3, Mixer: 2} },
			"sched: task 9 at cycle 3 consumes task 8 finishing at cycle 4"},
		{"slot past Tc", func(s *Schedule) { s.Slots[9] = Assignment{Cycle: 1000, Mixer: 1} },
			"sched: Tc=6 but max assigned cycle is 1000"},
		{"Tc too large", func(s *Schedule) { s.Cycles++ },
			"sched: Tc=7 but max assigned cycle is 6"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := MMS(pcrForest(t, 8), 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("untampered schedule: %v", err)
			}
			tc.tamper(s)
			err = s.Validate()
			if err == nil {
				t.Fatalf("tampered schedule validated; want %q", tc.want)
			}
			if err.Error() != tc.want {
				t.Fatalf("Validate = %q\n                    want %q", err.Error(), tc.want)
			}
		})
	}
}

// validateWithMaps is the map-keyed Schedule.Validate the slice-based one
// replaced, kept as the oracle for TestValidateMatchesMapOracle.
func validateWithMaps(s *Schedule) error {
	if n := len(s.Forest.Tasks) - s.FirstTask; s.FirstTask < 0 || len(s.Slots) != n {
		return fmt.Errorf("sched: %d slots for %d tasks", len(s.Slots), n)
	}
	slot := make(map[int]Assignment) // task ID -> assignment, window tasks only
	for i, a := range s.Slots {
		slot[s.FirstTask+i] = a
	}
	maxCycle := 0
	busy := make(map[[2]int]int) // (cycle, mixer) -> task ID
	perCycle := make(map[int]int)
	for _, t := range s.Forest.Tasks[s.FirstTask:] {
		a := slot[t.ID]
		if a.Cycle < 1 {
			return fmt.Errorf("sched: task %d unscheduled or at invalid cycle %d", t.ID, a.Cycle)
		}
		if a.Mixer < 1 || a.Mixer > s.Mixers {
			return fmt.Errorf("sched: task %d on invalid mixer %d (Mc=%d)", t.ID, a.Mixer, s.Mixers)
		}
		if prev, ok := busy[[2]int{a.Cycle, a.Mixer}]; ok {
			return fmt.Errorf("sched: mixer %d double-booked at cycle %d (tasks %d and %d)",
				a.Mixer, a.Cycle, prev, t.ID)
		}
		busy[[2]int{a.Cycle, a.Mixer}] = t.ID
		perCycle[a.Cycle]++
		if perCycle[a.Cycle] > s.Mixers {
			return fmt.Errorf("sched: more than %d mixes at cycle %d", s.Mixers, a.Cycle)
		}
		for _, src := range t.In {
			if src.Kind == forest.FromTask {
				p := slot[src.Task.ID] // the zero Assignment before the window
				if p.Cycle >= a.Cycle {
					return fmt.Errorf("sched: task %d at cycle %d consumes task %d finishing at cycle %d",
						t.ID, a.Cycle, src.Task.ID, p.Cycle)
				}
			}
		}
		if a.Cycle > maxCycle {
			maxCycle = a.Cycle
		}
	}
	if s.Cycles != maxCycle {
		return fmt.Errorf("sched: Tc=%d but max assigned cycle is %d", s.Cycles, maxCycle)
	}
	return nil
}

// TestValidateMatchesMapOracle perturbs real MMS/SRS schedules at random —
// moved slots, swapped slots, cloned slots (double bookings), scheduling
// windows, Tc and Mc — and requires Validate's verdict and message to equal the
// map-keyed oracle's on every one.
func TestValidateMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	for _, demand := range []int{2, 8, 20, 33} {
		f := pcrForest(t, demand)
		for _, mc := range []int{1, 2, 3, 5} {
			for _, schedule := range []func(*forest.Forest, int) (*Schedule, error){MMS, SRS} {
				base, err := schedule(f, mc)
				if err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < 200; trial++ {
					s := *base
					s.Slots = append([]Assignment(nil), base.Slots...)
					n := len(s.Slots)
					for edits := 1 + rng.Intn(3); edits > 0; edits-- {
						i := rng.Intn(n)
						switch rng.Intn(8) {
						case 0:
							s.Slots[i].Cycle = rng.Intn(s.Cycles+4) - 1
						case 1:
							s.Slots[i].Mixer = rng.Intn(mc + 2)
						case 2:
							j := rng.Intn(n)
							s.Slots[i], s.Slots[j] = s.Slots[j], s.Slots[i]
						case 3, 4:
							s.Slots[i] = s.Slots[rng.Intn(n)]
						case 5:
							s.Cycles += rng.Intn(3) - 1
						case 6:
							s.Mixers = 1 + rng.Intn(mc+1)
						case 7:
							s.FirstTask = rng.Intn(n)
						}
					}
					s.Slots = s.Slots[s.FirstTask:]
					if got, want := errText(s.Validate()), errText(validateWithMaps(&s)); got != want {
						t.Fatalf("D=%d mc=%d %s trial %d: Validate = %q, oracle %q",
							demand, mc, base.Algorithm, trial, got, want)
					}
				}
			}
		}
	}
}
