// Package export serialises the library's planning artefacts — mixing
// forests, schedules, streaming plans and chip transport plans — as stable
// JSON documents, so external tooling (visualisers, chip controllers, lab
// notebooks) can consume engine output without linking Go code.
package export

import (
	"encoding/json"
	"io"

	"repro/internal/exec"
	"repro/internal/forest"
	"repro/internal/sched"
	"repro/internal/stream"
)

// SourceJSON describes one input droplet of a task.
type SourceJSON struct {
	// Kind is "input" (fresh reservoir droplet) or "task".
	Kind string `json:"kind"`
	// Fluid is the 0-based fluid index for kind "input".
	Fluid int `json:"fluid,omitempty"`
	// Task is the producing task ID for kind "task".
	Task int `json:"task,omitempty"`
	// Reused marks cross-tree waste reuse.
	Reused bool `json:"reused,omitempty"`
}

// TaskJSON is one (1:1) mix-split step.
type TaskJSON struct {
	ID      int          `json:"id"`
	Tree    int          `json:"tree"`
	Level   int          `json:"level"`
	Label   string       `json:"label"`
	In      []SourceJSON `json:"in"`
	Targets int          `json:"targets,omitempty"`
	Vector  string       `json:"vector"`
}

// ForestJSON is a complete mixing forest.
type ForestJSON struct {
	Target    string     `json:"target"`
	Algorithm string     `json:"algorithm"`
	Demand    int        `json:"demand"`
	Trees     int        `json:"trees"`
	Mixes     int        `json:"mixes"`
	Waste     int64      `json:"waste"`
	Inputs    []int64    `json:"inputs"`
	Tasks     []TaskJSON `json:"tasks"`
}

// Forest converts a mixing forest.
func Forest(f *forest.Forest) ForestJSON {
	labels := f.Labels()
	st := f.Stats()
	out := ForestJSON{
		Target:    f.Base.Target.String(),
		Algorithm: f.Base.Algorithm,
		Demand:    f.Demand,
		Trees:     st.Trees,
		Mixes:     st.Mixes,
		Waste:     st.Waste,
		Inputs:    st.Inputs,
	}
	for _, t := range f.Tasks {
		tj := TaskJSON{
			ID:      t.ID,
			Tree:    t.Tree,
			Level:   t.Level,
			Label:   labels[t],
			Targets: t.Targets,
			Vector:  t.Vec.String(),
		}
		for _, src := range t.In {
			if src.Kind == forest.Input {
				tj.In = append(tj.In, SourceJSON{Kind: "input", Fluid: src.Fluid})
			} else {
				tj.In = append(tj.In, SourceJSON{Kind: "task", Task: src.Task.ID, Reused: src.Reused})
			}
		}
		out.Tasks = append(out.Tasks, tj)
	}
	return out
}

// SlotJSON is one scheduled mix-split.
type SlotJSON struct {
	Task  int `json:"task"`
	Cycle int `json:"cycle"`
	Mixer int `json:"mixer"`
}

// ScheduleJSON is a complete mixer/time assignment.
type ScheduleJSON struct {
	Algorithm string     `json:"algorithm"`
	Mixers    int        `json:"mixers"`
	Cycles    int        `json:"cycles"`
	Storage   int        `json:"storage"`
	FirstTask int        `json:"first_task,omitempty"`
	Slots     []SlotJSON `json:"slots"`
	Profile   []int      `json:"storage_profile"`
}

// Schedule converts a schedule.
func Schedule(s *sched.Schedule) ScheduleJSON {
	out := ScheduleJSON{
		Algorithm: s.Algorithm,
		Mixers:    s.Mixers,
		Cycles:    s.Cycles,
		Storage:   sched.StorageUnits(s),
		FirstTask: s.FirstTask,
		Profile:   sched.StorageProfile(s),
	}
	for _, t := range s.Tasks() {
		a := s.At(t)
		out.Slots = append(out.Slots, SlotJSON{Task: t.ID, Cycle: a.Cycle, Mixer: a.Mixer})
	}
	return out
}

// PassJSON is one streaming pass.
type PassJSON struct {
	Demand     int          `json:"demand"`
	StartCycle int          `json:"start_cycle"`
	Storage    int          `json:"storage"`
	Inputs     int64        `json:"inputs"`
	Waste      int64        `json:"waste"`
	Schedule   ScheduleJSON `json:"schedule"`
}

// StreamJSON is a complete multi-pass emission plan.
type StreamJSON struct {
	Demand        int        `json:"demand"`
	PerPassDemand int        `json:"per_pass_demand"`
	TotalCycles   int        `json:"total_cycles"`
	TotalInputs   int64      `json:"total_inputs"`
	TotalWaste    int64      `json:"total_waste"`
	Emitted       int        `json:"emitted"`
	Passes        []PassJSON `json:"passes"`
}

// Stream converts a streaming result.
func Stream(r *stream.Result) StreamJSON {
	out := StreamJSON{
		Demand:        r.Demand,
		PerPassDemand: r.PerPassDemand,
		TotalCycles:   r.TotalCycles,
		TotalInputs:   r.TotalInputs,
		TotalWaste:    r.TotalWaste,
		Emitted:       r.Emitted,
	}
	for _, p := range r.Passes {
		out.Passes = append(out.Passes, PassJSON{
			Demand:     p.Demand,
			StartCycle: p.StartCycle,
			Storage:    p.Storage,
			Inputs:     p.Inputs,
			Waste:      p.Waste,
			Schedule:   Schedule(p.Plan.Schedule()),
		})
	}
	return out
}

// MoveJSON is one droplet transport.
type MoveJSON struct {
	Cycle   int    `json:"cycle"`
	From    string `json:"from"`
	To      string `json:"to"`
	Cost    int    `json:"cost"`
	Purpose string `json:"purpose"`
}

// PlanJSON is a chip-level transport plan.
type PlanJSON struct {
	TotalCost    int        `json:"total_cost"`
	StorageCells int        `json:"storage_cells_used"`
	Moves        []MoveJSON `json:"moves"`
}

// Plan converts a transport plan.
func Plan(p *exec.Plan) PlanJSON {
	out := PlanJSON{TotalCost: p.TotalCost, StorageCells: p.StorageCellsUsed()}
	for _, m := range p.Moves {
		out.Moves = append(out.Moves, MoveJSON{
			Cycle:   m.Cycle,
			From:    m.From,
			To:      m.To,
			Cost:    m.Cost,
			Purpose: m.Purpose.String(),
		})
	}
	return out
}

// Write emits v as indented JSON.
func Write(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
