package forest

import (
	"testing"

	"repro/internal/ratio"
)

// TestValidateRejectsTamperedForests breaks every Validate branch once, on a
// fresh PCR forest per case, and pins the exact message each one reports.
// Validate guards forests that come from outside the builders (restored
// specs, decoded artifacts), so a rejected forest must say precisely what is
// wrong — and must never panic instead.
func TestValidateRejectsTamperedForests(t *testing.T) {
	// firstFrom returns the first task with an input drawn from another
	// task, and that input's slot.
	firstFrom := func(f *Forest) (*Task, int) {
		for _, task := range f.Tasks {
			for k, src := range task.In {
				if src.Kind == FromTask {
					return task, k
				}
			}
		}
		t.Fatal("forest has no internal droplet")
		return nil, 0
	}
	cases := []struct {
		name   string
		tamper func(f *Forest)
		want   string
	}{
		{"task ID mismatch", func(f *Forest) { f.Tasks[3].ID = 7 },
			"forest: task 3 has ID 7"},
		{"unknown fluid", func(f *Forest) { f.Tasks[0].In[1].Fluid = 9 },
			"forest: task 0 consumes unknown fluid 9"},
		{"negative fluid", func(f *Forest) { f.Tasks[0].In[0].Fluid = -1 },
			"forest: task 0 consumes unknown fluid -1"},
		{"invalid source kind", func(f *Forest) { f.Tasks[0].In[0].Kind = 5 },
			"forest: task 0 has invalid source kind 5"},
		{"foreign task", func(f *Forest) {
			other, err := Build(f.Base, 16)
			if err != nil {
				t.Fatal(err)
			}
			task, k := firstFrom(f)
			// Same ID, same vector: only identity tells it apart.
			task.In[k].Task = other.Tasks[task.In[k].Task.ID]
		}, "forest: task 2 consumes a task outside the forest or after itself"},
		{"forward reference", func(f *Forest) {
			task, k := firstFrom(f)
			task.In[k].Task = f.Tasks[task.ID+1]
		}, "forest: task 2 consumes a task outside the forest or after itself"},
		{"self reference", func(f *Forest) {
			task, k := firstFrom(f)
			task.In[k].Task = task
		}, "forest: task 2 consumes task 2 out of topological order"},
		{"nil source task", func(f *Forest) {
			task, k := firstFrom(f)
			task.In[k].Task = nil
		}, "forest: task 2 consumes a task outside the forest or after itself"},
		{"out-of-range source ID", func(f *Forest) {
			task, k := firstFrom(f)
			task.In[k].Task = &Task{ID: 1 << 20}
		}, "forest: task 2 consumes a task outside the forest or after itself"},
		{"wrong CF input", func(f *Forest) { f.Tasks[0].In[0].Fluid = 6 },
			"forest: task 0 vector <0:1:1:0:0:0:0>/2, inputs average <0:0:1:0:0:0:1>/2"},
		{"wrong CF", func(f *Forest) { f.Tasks[0].Vec = f.Tasks[1].Vec },
			"forest: task 0 vector <0:0:0:1:1:0:0>/2, inputs average <0:1:1:0:0:0:0>/2"},
		{"CF over the wrong fluid count", func(f *Forest) { f.Tasks[0].Vec = ratio.Unit(0, 3) },
			"forest: task 0 vector <1:0:0>/1, inputs average <0:1:1:0:0:0:0>/2"},
		{"wrong base vector", func(f *Forest) { f.Tasks[0].Base = f.Tasks[1].Base },
			"forest: task 0 vector <0:1:1:0:0:0:0>/2 does not match its base node <0:0:0:1:1:0:0>/2"},
		{"over-consumed outputs", func(f *Forest) {
			task, k := firstFrom(f)
			task.In[k].Task.Targets = 2
		}, "forest: task 0 outputs over-consumed (2 targets + 2 consumers)"},
		{"root without 2 targets", func(f *Forest) { f.Trees[2].Root.Targets = 1 },
			"forest: tree 3 root emits 1 targets, want 2"},
		{"tree without root", func(f *Forest) { f.Trees[1].Root = nil },
			"forest: tree 2 has no root"},
		{"wrong root CF", func(f *Forest) { f.Trees[0].Want = ratio.Unit(0, 7) },
			"forest: tree 1 root vector <2:1:1:1:1:1:9>/16, want target <1:0:0:0:0:0:0>/1"},
		{"broken conservation", func(f *Forest) { f.Trees = append(f.Trees, f.Trees[0]) },
			"forest: conservation violated: I=16, targets=18, W=0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := Build(pcrBase(t), 16)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Validate(); err != nil {
				t.Fatalf("untampered forest: %v", err)
			}
			tc.tamper(f)
			err = f.Validate()
			if err == nil {
				t.Fatalf("tampered forest validated; want %q", tc.want)
			}
			if err.Error() != tc.want {
				t.Fatalf("Validate = %q\n                    want %q", err.Error(), tc.want)
			}
		})
	}
}
