package stream

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/audit"
	"repro/internal/forest"
	"repro/internal/plancache"
	"repro/internal/sched"
)

// planMutations each corrupt one part of a freshly built plan's slab
// before anything materializes it, so the pointer forms inherit the
// corruption: one input source, one task level, one slot cycle, one mixer
// binding, the claimed storage peak, and one source re-pointed at an
// equal-vector node that is not the child. apply reports whether the plan
// admits the mutation; all but the last apply to every plan. claim marks a
// corruption of the plan's claimed summary, which the forms themselves do
// not carry: CheckPlan cannot see it, CheckForms' recount does. packedOnly
// marks a corruption only the packed audit rejects.
var planMutations = []struct {
	name       string
	claim      bool
	packedOnly bool
	apply      func(p *plancache.Plan) bool
}{
	{"source", false, false, func(p *plancache.Plan) bool {
		// Re-route the first dispensed input to the next fluid: its task no
		// longer averages to its base node's vector.
		pf := p.Packed()
		n := int32(pf.Base.Target.N())
		for i := range pf.Tasks {
			for s := range pf.Tasks[i].In {
				if src := &pf.Tasks[i].In[s]; src.Kind() == forest.Input {
					*src = forest.InputSource((src.Ref() + 1) % n)
					return true
				}
			}
		}
		return false
	}},
	{"level", false, false, func(p *plancache.Plan) bool {
		// Lift the last task a level: the schedulers' priorities read task
		// levels, though no vector or slot changes.
		pf := p.Packed()
		pf.Tasks[len(pf.Tasks)-1].Level++
		return true
	}},
	{"slot cycle", false, false, func(p *plancache.Plan) bool {
		// Run the first consumer of another task's droplet in its
		// producer's cycle; a plan with no hand-off runs a task past Tc.
		pf, slots := p.Packed(), p.Slots()
		for i := range pf.Tasks {
			for _, src := range pf.Tasks[i].In {
				if src.Kind() == forest.FromTask {
					slots[i].Cycle = slots[src.Ref()].Cycle
					return true
				}
			}
		}
		slots[0].Cycle = int32(p.Cycles) + 1
		return true
	}},
	{"mixer binding", false, false, func(p *plancache.Plan) bool {
		// Book a task onto the mixer of another task in its cycle; with one
		// task per cycle, onto a mixer the chip does not have.
		slots := p.Slots()
		for i := range slots {
			for j := range i {
				if slots[j].Cycle == slots[i].Cycle {
					slots[i].Mixer = slots[j].Mixer
					return true
				}
			}
		}
		slots[0].Mixer = int32(p.Mixers) + 1
		return true
	}},
	{"storage claim", true, false, func(p *plancache.Plan) bool { p.Storage++; return true }},
	// Packed-only: the pointer audit proves CF exactness by arithmetic on
	// purpose, because multi-target forests reuse spares by vector, so an
	// input of the right vector from the wrong node passes it. The packed
	// audit checks the lemma's premise, which this breaks.
	{"equal-vector non-child source", false, true, func(p *plancache.Plan) bool {
		// Feed a task from a spare of a node whose vector equals, but which
		// is not, the child its source instantiates; the spare runs before
		// the task, and the claimed stats and storage are recounted, so
		// nothing but the premise is broken.
		pf, slots := p.Packed(), p.Slots()
		if !rerouteToEqualVector(pf, func(q, j int) bool { return slots[q].Cycle < slots[j].Cycle }) {
			return false
		}
		p.Stats = pf.PackedStats(0, make([]int64, pf.Base.Target.N()))
		p.Storage = sched.StorageUnits(p.Schedule())
		return true
	}},
}

// rerouteToEqualVector points the first FromTask source it can at an
// earlier task q of a different base node with an equal vector and a free
// output, where ok(q, consumer) holds. Consumers follow the sources, so
// nothing else changes.
func rerouteToEqualVector(pf *forest.PackedForest, ok func(q, j int) bool) bool {
	vecs, formed := pf.Base.Vectors(), pf.Materialize()
	for j := range pf.Tasks {
		for k, src := range pf.Tasks[j].In {
			if src.Kind() != forest.FromTask {
				continue
			}
			child := pf.Tasks[src.Ref()].Base
			for q := range j {
				if v := pf.Tasks[q].Base; v == child || !vecs[v].Equal(vecs[child]) || formed.Tasks[q].FreeOutputs() == 0 || !ok(q, j) {
					continue
				}
				pf.Tasks[j].In[k] = forest.TaskSource(int32(q))
				return true
			}
		}
	}
	return false
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
// forms too. With packedOnly it requires the packed audit to reject p and
// the pointer-form audit to pass it.
func bothReject(p *plancache.Plan, claim, packedOnly bool) error {
	packed := audit.CheckPacked(p)
	forms := audit.CheckForms(p)
	if packedOnly {
		if packed.Clean() || !errors.Is(packed.Err(), audit.ErrViolation) || !forms.Clean() {
			return fmt.Errorf("CheckPacked %v; CheckForms %v: want only the packed audit to reject", packed.Err(), forms.Err())
		}
		return nil
	}
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
// reject each corruption alike, or only the packed audit a packed-only
// one; the clean plan must pass both.
func TestAuditMutations(t *testing.T) {
	plans, applied := 0, make([]int, len(planMutations))
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
					for i, m := range planMutations {
						bad, err := BuildPlan(cfg, d)
						if err != nil {
							t.Fatal(err)
						}
						if !m.apply(bad) {
							continue
						}
						applied[i]++
						if err := bothReject(bad, m.claim, m.packedOnly); err != nil {
							t.Fatalf("%s D=%d %s mc=%d, %s mutation: %v", gg.label, d, scheme, mc, m.name, err)
						}
					}
					plans++
				}
			}
		}
	}
	for i, m := range planMutations {
		if applied[i] == 0 {
			t.Errorf("%s mutation applies to no plan", m.name)
		}
	}
	t.Logf("%d plans, each clean under both audits; mutations applied %v times, each rejected", plans, applied)
}
