package stream

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/audit"
	"repro/internal/forest"
	"repro/internal/plancache"
)

// planMutations each corrupt one part of a freshly built plan's slab
// before anything materializes it, so the pointer forms inherit the
// corruption: one input source, one task level, one slot cycle, one mixer
// binding, and the claimed storage peak. Every mutation applies to every plan. claim marks
// a corruption of the plan's claimed summary, which the forms themselves
// do not carry: CheckPlan cannot see it, CheckForms' recount does.
var planMutations = []struct {
	name  string
	claim bool
	apply func(p *plancache.Plan)
}{
	{"source", false, func(p *plancache.Plan) {
		// Re-route the first dispensed input to the next fluid: its task no
		// longer averages to its base node's vector.
		pf := p.Packed()
		n := int32(pf.Base.Target.N())
		for i := range pf.Tasks {
			for s := range pf.Tasks[i].In {
				if src := &pf.Tasks[i].In[s]; src.Kind == forest.Input {
					src.Ref = (src.Ref + 1) % n
					return
				}
			}
		}
	}},
	{"level", false, func(p *plancache.Plan) {
		// Lift the last task a level: the schedulers' priorities read task
		// levels, though no vector or slot changes.
		pf := p.Packed()
		pf.Tasks[len(pf.Tasks)-1].Level++
	}},
	{"slot cycle", false, func(p *plancache.Plan) {
		// Run the first consumer of another task's droplet in its
		// producer's cycle; a plan with no hand-off runs a task past Tc.
		pf, slots := p.Packed(), p.Slots()
		for i := range pf.Tasks {
			for _, src := range pf.Tasks[i].In {
				if src.Kind == forest.FromTask {
					slots[i].Cycle = slots[src.Ref].Cycle
					return
				}
			}
		}
		slots[0].Cycle = p.Cycles + 1
	}},
	{"mixer binding", false, func(p *plancache.Plan) {
		// Book a task onto the mixer of another task in its cycle; with one
		// task per cycle, onto a mixer the chip does not have.
		slots := p.Slots()
		for i := range slots {
			for j := range i {
				if slots[j].Cycle == slots[i].Cycle {
					slots[i].Mixer = slots[j].Mixer
					return
				}
			}
		}
		slots[0].Mixer = p.Mixers + 1
	}},
	{"storage claim", true, func(p *plancache.Plan) { p.Storage++ }},
}

// auditsAgree reports an error unless both plan audits pass p: the packed
// audit of its slab and the pointer-form audit of its materialized forms.
func auditsAgree(p *plancache.Plan) error {
	packed := audit.CheckPacked(p)
	forms := audit.CheckForms(p)
	if !packed.Clean() || !forms.Clean() {
		return fmt.Errorf("plan audits disagree with a clean plan: CheckPacked %v; CheckForms %v", packed.Err(), forms.Err())
	}
	return nil
}

// bothReject reports an error unless both plan audits reject p, each with
// an audit violation, and, unless claim is set, CheckPlan rejects its
// forms too.
func bothReject(p *plancache.Plan, claim bool) error {
	packed := audit.CheckPacked(p)
	forms := audit.CheckForms(p)
	if packed.Clean() || forms.Clean() || !errors.Is(packed.Err(), audit.ErrViolation) || !errors.Is(forms.Err(), audit.ErrViolation) {
		return fmt.Errorf("CheckPacked %v; CheckForms %v: want both to reject", packed.Err(), forms.Err())
	}
	if plan := audit.CheckPlan(p.Forest(), p.Schedule()); !claim && plan.Clean() {
		return fmt.Errorf("CheckPlan passes a corrupted forest or schedule")
	}
	return nil
}

// TestAuditMutations corrupts every plan of the TestPlannerGolden plan
// cases, one mutation at a time, and requires the packed audit and the
// pointer-form audit (CheckPlan, and for a claim CheckForms' recount) to
// reject each corruption alike; the clean plan must pass both.
func TestAuditMutations(t *testing.T) {
	plans := 0
	for _, gg := range goldenGraphs(t) {
		for _, d := range goldenDemands {
			for _, scheme := range goldenSchemes {
				for _, mc := range goldenMixers {
					cfg := Config{Base: gg.g, Mixers: mc, Scheduler: scheme}
					p, err := BuildPlan(cfg, d)
					if err != nil {
						t.Fatal(err)
					}
					if err := auditsAgree(p); err != nil {
						t.Fatalf("%s D=%d %s mc=%d: %v", gg.label, d, scheme, mc, err)
					}
					for _, m := range planMutations {
						bad, err := BuildPlan(cfg, d)
						if err != nil {
							t.Fatal(err)
						}
						m.apply(bad)
						if err := bothReject(bad, m.claim); err != nil {
							t.Fatalf("%s D=%d %s mc=%d, %s mutation: %v", gg.label, d, scheme, mc, m.name, err)
						}
					}
					plans++
				}
			}
		}
	}
	t.Logf("%d plans, each clean under both audits and each of %d mutations rejected by both", plans, len(planMutations))
}
