package sched

import (
	"testing"

	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/ratio"
)

func TestMobilitiesPCRTree(t *testing.T) {
	g, _ := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	f, _ := forest.Build(g, 2)
	horizon := CriticalPathBound(f) // 4 for the base tree
	if horizon != 4 {
		t.Fatalf("critical path = %d, want 4", horizon)
	}
	ms := Mobilities(f, horizon)
	for _, task := range f.Tasks {
		m := ms[task.ID]
		if m.ASAP < 1 || m.ALAP > horizon || m.ASAP > m.ALAP {
			t.Errorf("task %d: mobility [%d,%d] out of range", task.ID, m.ASAP, m.ALAP)
		}
	}
	// The root has no slack and sits at the horizon.
	root := f.Trees[0].Root
	if ms[root.ID].ASAP != horizon || ms[root.ID].ALAP != horizon {
		t.Errorf("root mobility [%d,%d], want [4,4]", ms[root.ID].ASAP, ms[root.ID].ALAP)
	}
}

func TestMobilityWidensWithHorizon(t *testing.T) {
	g, _ := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	f, _ := forest.Build(g, 8)
	tight := Mobilities(f, CriticalPathBound(f))
	loose := Mobilities(f, CriticalPathBound(f)+5)
	for _, task := range f.Tasks {
		if loose[task.ID].Slack() != tight[task.ID].Slack()+5 {
			t.Errorf("task %d: slack %d -> %d, want +5", task.ID, tight[task.ID].Slack(), loose[task.ID].Slack())
		}
	}
}

func TestSchedulesRespectMobility(t *testing.T) {
	g, _ := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	f, _ := forest.Build(g, 20)
	for _, schedule := range []func(*forest.Forest, int) (*Schedule, error){MMS, SRS} {
		s, err := schedule(f, 3)
		if err != nil {
			t.Fatalf("schedule: %v", err)
		}
		ms := Mobilities(f, s.Cycles)
		for _, task := range f.Tasks {
			c := int(s.Slots[task.ID].Cycle)
			if c < ms[task.ID].ASAP || c > ms[task.ID].ALAP {
				t.Errorf("%s: task %d at cycle %d outside mobility [%d,%d]",
					s.Algorithm, task.ID, c, ms[task.ID].ASAP, ms[task.ID].ALAP)
			}
		}
	}
}

func TestCriticalTasksFormAChain(t *testing.T) {
	g, _ := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	// The balanced base tree is entirely critical at its tight horizon.
	f, _ := forest.Build(g, 2)
	if crit := CriticalTasks(f); len(crit) != len(f.Tasks) {
		t.Errorf("base tree: %d critical of %d — a balanced tree is fully critical",
			len(crit), len(f.Tasks))
	}
	// A ratio with uneven chains has slack: in 3:5:5:3 the leaf-leaf mix
	// (x1,x4) hangs directly below a level-3 node, so it can float.
	g2, _ := minmix.Build(ratio.MustNew(3, 5, 5, 3))
	f, _ = forest.Build(g2, 2)
	crit := CriticalTasks(f)
	if len(crit) == 0 || len(crit) >= len(f.Tasks) {
		t.Errorf("3:5:5:3 tree: %d critical of %d, expected a strict subset",
			len(crit), len(f.Tasks))
	}
	// Every non-root critical task feeds another critical task.
	critSet := map[*forest.Task]bool{}
	for _, c := range crit {
		critSet[c] = true
	}
	for _, c := range crit {
		if c.Targets > 0 {
			continue
		}
		feeds := false
		for _, consumer := range c.Consumers() {
			if critSet[consumer] {
				feeds = true
			}
		}
		if !feeds {
			t.Errorf("critical task %d feeds no critical consumer", c.ID)
		}
	}
}
