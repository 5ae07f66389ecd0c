package audit_test

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/plancache"
	"repro/internal/protocols"
	"repro/internal/sched"
)

// persistentWindow returns the second batch of a persistent PCR engine
// that served Request(2) twice: a one-mix window whose task consumes one
// of the six spares the first batch pooled and leaves five stored.
func persistentWindow(t *testing.T) *plancache.Plan {
	t.Helper()
	e, err := core.New(core.Config{Target: protocols.PCR16().Ratio, PersistPool: true})
	if err != nil {
		t.Fatal(err)
	}
	var b *core.Batch
	for range 2 {
		if b, err = e.Request(2); err != nil {
			t.Fatal(err)
		}
	}
	return b.Result.Passes[0].Plan
}

// rewindow rebuilds window p from a copy of its slab, after edit has
// changed the copy, its pooled count or its slot table.
func rewindow(p *plancache.Plan, edit func(tasks []forest.PTask, first int, pooled *int, slots *[]sched.Assignment)) *plancache.Plan {
	first, pooled, _ := p.Window()
	slab := *p.Packed()
	slab.Tasks = append([]forest.PTask(nil), slab.Tasks...)
	slots := append([]sched.Assignment(nil), p.Slots()...)
	edit(slab.Tasks, first, &pooled, &slots)
	return plancache.NewWindow(slab, first, pooled, slots, p.Algorithm(), p.Mixers, p.Cycles, p.Storage)
}

// preWindowSource finds a source of a window task that an earlier batch
// made: its task and input index.
func preWindowSource(t *testing.T, tasks []forest.PTask, first int) (int, int) {
	t.Helper()
	for i := first; i < len(tasks); i++ {
		for s, src := range tasks[i].In {
			if src.Kind() == forest.FromTask && int(src.Ref()) < first {
				return i, s
			}
		}
	}
	t.Fatal("the window consumes no earlier batch's spare")
	return 0, 0
}

// TestCheckPackedRejectsTamperedWindows: CheckPacked passes a persistent
// batch's window as planned and rejects each of its breaches: carried
// spares off by one against the claimed storage, a source of an earlier
// batch naming a task at or after the window's start, and a slot table
// that also places the earlier batch's tasks. (Reuse tags are derived
// from the spans, so none can be flipped; an artifact's wire still
// carries them, and TestDecodeChecksDerivedClaims flips them there.)
func TestCheckPackedRejectsTamperedWindows(t *testing.T) {
	p := persistentWindow(t)
	if first, pooled, ok := p.Window(); !ok || first == 0 || pooled != 6 || p.Storage != 5 {
		t.Fatalf("window from task %d with %d spares pooled and storage %d (window %v), want a later window, 6 and 5", first, pooled, p.Storage, ok)
	}
	if rep := audit.CheckPacked(p); !rep.Clean() {
		t.Fatalf("the window as planned fails: %v", rep.Err())
	}
	if rep := audit.CheckPacked(rewindow(p, func([]forest.PTask, int, *int, *[]sched.Assignment) {})); !rep.Clean() {
		t.Fatalf("the window rebuilt unchanged fails: %v", rep.Err())
	}
	cases := []struct {
		name string
		code audit.Code
		edit func(tasks []forest.PTask, first int, pooled *int, slots *[]sched.Assignment)
	}{
		{"one more carried spare", audit.StorageOccupancy, func(_ []forest.PTask, _ int, pooled *int, _ *[]sched.Assignment) {
			*pooled++
		}},
		{"one less carried spare", audit.StorageOccupancy, func(_ []forest.PTask, _ int, pooled *int, _ *[]sched.Assignment) {
			*pooled--
		}},
		{"earlier spare names the window's first task", audit.Structure, func(tasks []forest.PTask, first int, _ *int, _ *[]sched.Assignment) {
			i, s := preWindowSource(t, tasks, first)
			tasks[i].In[s] = forest.TaskSource(int32(first))
		}},
		{"earlier spare names a later task", audit.Structure, func(tasks []forest.PTask, first int, _ *int, _ *[]sched.Assignment) {
			i, s := preWindowSource(t, tasks, first)
			tasks[i].In[s] = forest.TaskSource(int32(len(tasks) - 1))
		}},
		{"slots cover the earlier tasks", audit.Structure, func(_ []forest.PTask, first int, _ *int, slots *[]sched.Assignment) {
			*slots = append(make([]sched.Assignment, first), *slots...)
			for i := range first {
				(*slots)[i] = sched.Assignment{Cycle: 1, Mixer: 1}
			}
		}},
	}
	for _, c := range cases {
		rep := audit.CheckPacked(rewindow(p, c.edit))
		if rep.Clean() {
			t.Errorf("%s: CheckPacked passes the tampered window", c.name)
			continue
		}
		if got := rep.Violations[0].Code; got != c.code {
			t.Errorf("%s: first violation %v (%v), want %v", c.name, got, rep.Err(), c.code)
		}
	}
}
