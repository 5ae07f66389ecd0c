// Package audit is the invariant-audit layer of the droplet-streaming
// engine: it continuously verifies, on the hot path, the exactness
// guarantees the paper's whole value proposition rests on, and turns any
// violation into a typed, inspectable diagnostic instead of a silent
// mis-mix.
//
// Two tiers of checking:
//
//   - Plan-level (CheckPacked, CheckForms, CheckForest, CheckSchedule,
//     CheckPlan, CheckStreamCounts): pure functions over built plans — in
//     their packed slab or their pointer forms — and multi-pass plans.
//     They verify the paper's closed forms — |F| = ⌈D/2⌉ component trees,
//     2 target droplets per tree, droplet conservation I = T + W, the
//     zero-waste theorem W = 0 for D ≡ 0 (mod 2^d) on an MM base, exact CF
//     arithmetic over 2^d denominators at every mix-split — plus the
//     physical schedule constraints and an independent recomputation of
//     Algorithm 3's storage-occupancy profile.
//
//   - Execution-level (Ledger, in ledger.go): a per-run droplet ledger fed
//     by the cyberphysical runtime. Every droplet is tracked from dispense
//     to emission/waste/loss, with policy-independent strict tolerances, so
//     a fault that slips past a miscalibrated checkpoint sensor still
//     surfaces as a Violation at the mix that consumed it or at the output
//     port.
//
// Every violation wraps ErrViolation, carries a Code naming the broken
// invariant, and keeps the recent event trail — never a silent pass.
package audit

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/forest"
	"repro/internal/plancache"
	"repro/internal/sched"
)

// Code names the class of invariant a Violation breaks.
type Code int

const (
	// Structure: the forest/schedule fails its structural validation
	// (topological order, consumption bounds, slot sanity).
	Structure Code = iota
	// MassConservation: droplets were created or destroyed where the
	// (1:1) mix-split model conserves them (I = T + W at plan level;
	// volume-in = volume-out at every physical mix-split).
	MassConservation
	// CFExactness: a droplet's concentration-factor vector deviates from
	// the exact 2^d-denominator arithmetic of the plan.
	CFExactness
	// TargetCount: the number of component trees or emitted target
	// droplets disagrees with the paper's closed forms (|F| = ⌈D/2⌉,
	// T = 2|F|, Emitted ≥ D).
	TargetCount
	// WasteCount: the waste count violates a closed form (in particular
	// the zero-waste theorem W = 0 for D ≡ 0 mod 2^d on an MM base).
	WasteCount
	// StorageOccupancy: the schedule's storage profile disagrees with an
	// independent recomputation of Algorithm 3's lifetime count.
	StorageOccupancy
	// DropletLifecycle: a droplet was consumed before it existed, fetched
	// from an empty pool, or left in flight at run end.
	DropletLifecycle
	// EmissionTolerance: an emitted target droplet is outside the strict
	// (policy-independent) volume/CF envelope.
	EmissionTolerance
	// ScheduleOrder: pass start-cycles, cycle totals or per-pass emission
	// ordering are inconsistent.
	ScheduleOrder
)

// String names the code.
func (c Code) String() string {
	switch c {
	case Structure:
		return "structure"
	case MassConservation:
		return "mass-conservation"
	case CFExactness:
		return "cf-exactness"
	case TargetCount:
		return "target-count"
	case WasteCount:
		return "waste-count"
	case StorageOccupancy:
		return "storage-occupancy"
	case DropletLifecycle:
		return "droplet-lifecycle"
	case EmissionTolerance:
		return "emission-tolerance"
	case ScheduleOrder:
		return "schedule-order"
	default:
		return fmt.Sprintf("Code(%d)", int(c))
	}
}

// ErrViolation is the sentinel every audit violation wraps; callers use
// errors.Is(err, audit.ErrViolation) to distinguish invariant breaks from
// ordinary planning or runtime errors.
var ErrViolation = errors.New("audit: invariant violated")

// Violation is one broken invariant, with enough context to debug it.
type Violation struct {
	// Code names the invariant class.
	Code Code
	// Cycle is the schedule cycle the violation was detected at (0 when
	// the check is not cycle-local).
	Cycle int
	// Detail is the human-readable specifics (expected vs got).
	Detail string
	// Trail is the most recent ledger event log at detection time (empty
	// for plan-level checks).
	Trail []string
}

// Error renders the violation; it wraps ErrViolation.
func (v *Violation) Error() string {
	if v.Cycle > 0 {
		return fmt.Sprintf("%v: %s at cycle %d: %s", ErrViolation, v.Code, v.Cycle, v.Detail)
	}
	return fmt.Sprintf("%v: %s: %s", ErrViolation, v.Code, v.Detail)
}

// Unwrap makes errors.Is(v, ErrViolation) true.
func (v *Violation) Unwrap() error { return ErrViolation }

// Report is the outcome of an audit: the checks performed, the violations
// found, and (for execution-level audits) the droplet-ledger totals.
type Report struct {
	// Checks counts the individual invariant checks performed.
	Checks int
	// Violations lists every broken invariant, in detection order.
	Violations []*Violation

	// Ledger totals (execution-level audits only; zero at plan level).
	Created, FailedShots, MixSplits int
	Emitted, Pooled, Unpooled, Lost int
}

// Clean reports whether the audit found no violations.
func (r *Report) Clean() bool { return r != nil && len(r.Violations) == 0 }

// Err returns nil for a clean report, else the first violation (annotated
// with the total count). The returned error wraps ErrViolation.
func (r *Report) Err() error {
	if r.Clean() {
		return nil
	}
	if len(r.Violations) == 1 {
		return r.Violations[0]
	}
	return fmt.Errorf("%w (and %d more)", error(r.Violations[0]), len(r.Violations)-1)
}

// Merge folds another report's checks, violations and totals into r.
func (r *Report) Merge(o *Report) {
	if o == nil {
		return
	}
	r.Checks += o.Checks
	r.Violations = append(r.Violations, o.Violations...)
	r.Created += o.Created
	r.FailedShots += o.FailedShots
	r.MixSplits += o.MixSplits
	r.Emitted += o.Emitted
	r.Pooled += o.Pooled
	r.Unpooled += o.Unpooled
	r.Lost += o.Lost
}

// String renders a one-line summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d checks, %d violations", r.Checks, len(r.Violations))
	if r.Created+r.Emitted+r.Lost+r.Pooled > 0 {
		fmt.Fprintf(&b, "; ledger: %d created, %d mix-splits, %d emitted, %d pooled, %d lost, %d failed shots",
			r.Created, r.MixSplits, r.Emitted, r.Pooled, r.Lost, r.FailedShots)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n  %s", v.Error())
	}
	return b.String()
}

// failed records one check outcome; true means the invariant was violated
// and the caller must append its Violation via violate. The two-step shape
// keeps the clean path from materializing violation messages: these audits
// run on every plan the serving layer builds, so a passing check must not
// format anything (TestCleanAuditAllocs).
func (r *Report) failed(ok bool) bool {
	r.Checks++
	return !ok
}

func (r *Report) violate(v *Violation) {
	r.Violations = append(r.Violations, v)
}

// CheckForest audits a built mixing forest against the paper's plan-level
// invariants: structural validity (topological order, exact CF arithmetic
// at every task, consumption bounds), the closed forms |F| = ⌈D/2⌉ and
// T = 2·|F|, droplet conservation I = T + W, root-CF exactness, and the
// zero-waste theorem W = 0 when the emitted count is a multiple of 2^d on
// an MM base.
func CheckForest(f *forest.Forest) *Report {
	r := &Report{}
	st, err := f.ValidateStats()
	if r.failed(err == nil) {
		// Structural breakage invalidates the aggregate checks below.
		r.violate(&Violation{Code: Structure, Detail: fmt.Sprint(err)})
		return r
	}
	wantTrees := (f.Demand + 1) / 2
	if r.failed(st.Trees == wantTrees) {
		r.violate(&Violation{Code: TargetCount, Detail: fmt.Sprintf("|F| = %d trees for D=%d, want ⌈D/2⌉ = %d", st.Trees, f.Demand, wantTrees)})
	}
	if r.failed(st.Targets == 2*st.Trees) {
		r.violate(&Violation{Code: TargetCount, Detail: fmt.Sprintf("%d target droplets from %d trees, want 2 per tree", st.Targets, st.Trees)})
	}
	if r.failed(st.InputTotal == int64(st.Targets)+st.Waste) {
		r.violate(&Violation{Code: MassConservation, Detail: fmt.Sprintf("I=%d, T=%d, W=%d: I != T + W", st.InputTotal, st.Targets, st.Waste)})
	}
	target := f.Base.Target.Vector()
	for _, tree := range f.Trees {
		want := tree.Want
		if want.IsZero() {
			want = target
		}
		if r.failed(tree.Root.Vec.Equal(want)) {
			r.violate(&Violation{Code: CFExactness, Detail: fmt.Sprintf("tree %d root CF %v, want %v", tree.Index, tree.Root.Vec, want)})
		}
	}
	// Zero-waste theorem (§4): with the MM base and D = p·2^d every
	// intermediate droplet is consumed. Emitted count (D rounded up to
	// even) is the operative quantity.
	if f.Base.Algorithm == "MM" {
		if d := f.Base.Target.Depth(); d >= 1 {
			if period := int64(1) << uint(d); int64(st.Targets)%period == 0 {
				if r.failed(st.Waste == 0) {
					r.violate(&Violation{Code: WasteCount, Detail: fmt.Sprintf("W=%d for emitted=%d ≡ 0 mod 2^%d on MM base, want 0", st.Waste, st.Targets, d)})
				}
			}
		}
	}
	return r
}

// CheckSchedule audits a schedule: physical validity (every task of its
// window exactly once, precedence, mixer bounds, no double-booking) and
// storage occupancy, counted by consumer over the window and recomputed
// independently of Algorithm 3's per-task loop via a difference array over
// droplet lifetimes, then compared cycle-by-cycle against
// sched.StorageProfile.
func CheckSchedule(s *sched.Schedule) *Report {
	r := &Report{}
	err := s.Validate()
	if r.failed(err == nil) {
		r.violate(&Violation{Code: Structure, Detail: fmt.Sprint(err)})
		return r
	}
	// Independent storage recomputation: +1 when a droplet enters storage
	// (producer cycle + 1), -1 when its consumer picks it up. Algorithm 3
	// walks each lifetime interval instead; both must agree everywhere.
	diff := make([]int, s.Cycles+2)
	for _, t := range s.Tasks() {
		consumed := s.At(t).Cycle
		for _, src := range t.In {
			if src.Kind != forest.FromTask {
				continue
			}
			if produced := s.At(src.Task).Cycle; produced+1 <= consumed-1 {
				diff[produced+1]++
				diff[consumed]--
			}
		}
	}
	profile := sched.StorageProfile(s)
	occ := 0
	peak := 0
	units := 0 // sched.StorageUnits(s), the peak of the same profile
	for cycle := 1; cycle <= s.Cycles; cycle++ {
		occ += diff[cycle]
		if r.failed(occ == profile[cycle]) {
			r.violate(&Violation{Code: StorageOccupancy, Cycle: cycle,
				Detail: fmt.Sprintf("independent occupancy %d, Algorithm 3 profile %d", occ, profile[cycle])})
		}
		peak = max(peak, occ)
		units = max(units, profile[cycle])
	}
	if r.failed(peak == units) {
		r.violate(&Violation{Code: StorageOccupancy, Detail: fmt.Sprintf("peak occupancy %d, StorageUnits %d", peak, units)})
	}
	return r
}

// CheckPlan audits a (forest, schedule) pair in pointer forms: the
// reference twin of CheckPacked, which audits every plan a cache holds.
func CheckPlan(f *forest.Forest, s *sched.Schedule) *Report {
	r := CheckForest(f)
	r.Merge(CheckSchedule(s))
	return r
}

// CheckForms audits a whole plan in its pointer forms: CheckPlan on its
// Forest and Schedule, and its claimed summary — Stats, Storage, Cycles and
// Mixers — against a recount from those forms. It is CheckPacked's
// reference twin: TestAuditMutations and FuzzPlan require the two to
// accept and reject the same plans.
func CheckForms(p *plancache.Plan) *Report {
	f, s := p.Forest(), p.Schedule()
	r := CheckPlan(f, s)
	if !r.Clean() {
		return r // a broken forest or schedule has no meaningful recount
	}
	st := f.Stats()
	c := p.Stats
	ok := c.Trees == st.Trees && c.Mixes == st.Mixes && c.Targets == st.Targets &&
		c.Waste == st.Waste && c.InputTotal == st.InputTotal && c.Reuses == st.Reuses &&
		slices.Equal(c.Inputs, st.Inputs)
	if r.failed(ok) {
		r.violate(&Violation{Code: MassConservation, Detail: fmt.Sprintf("claimed stats %+v, recount %+v", c, st)})
	}
	if storage := sched.StorageUnits(s); r.failed(storage == p.Storage) {
		r.violate(&Violation{Code: StorageOccupancy, Detail: fmt.Sprintf("claimed storage %d, recomputed %d", p.Storage, storage)})
	}
	if r.failed(p.Cycles == s.Cycles && p.Mixers == s.Mixers) {
		r.violate(&Violation{Code: Structure, Detail: fmt.Sprintf("claimed Tc=%d on %d mixers, schedule Tc=%d on %d", p.Cycles, p.Mixers, s.Cycles, s.Mixers)})
	}
	return r
}

// PassCounts summarises one planned pass for stream-level auditing.
type PassCounts struct {
	// Emits is the number of target droplets the pass emits.
	Emits int
	// Cycles is the pass makespan Tc.
	Cycles int
	// Waste and Inputs are the pass's droplet costs.
	Waste, Inputs int64
	// StartCycle is the absolute cycle the pass begins at (1-based).
	StartCycle int
	// Storage is the pass's peak storage occupancy.
	Storage int
}

// StreamCounts summarises a multi-pass plan for auditing.
type StreamCounts struct {
	// Demand is the requested droplet count D; PerPassDemand is D'.
	Demand, PerPassDemand int
	// Storage is the storage budget q' every pass must fit in; 0 means
	// unlimited.
	Storage int
	// Emitted, TotalCycles, TotalWaste, TotalInputs are the plan's
	// aggregate claims.
	Emitted, TotalCycles    int
	TotalWaste, TotalInputs int64
	Passes                  []PassCounts
}

// CheckStreamCounts audits a multi-pass plan's bookkeeping against the
// paper's closed forms: the pass count and per-pass emissions follow from
// D and D' (each pass emits min(D', remaining) rounded up to even), the
// surplus over D is at most one droplet, pass start-cycles tile the
// timeline contiguously, every pass — the final short one included — fits
// in the storage budget, and the totals equal the per-pass sums.
//
// It is small enough to inline, so the Report of a caller that keeps it
// local stays on the caller's stack: a clean audit allocates nothing
// (TestCleanAuditAllocs).
func CheckStreamCounts(c StreamCounts) *Report {
	r := &Report{}
	r.checkStreamCounts(&c)
	return r
}

// checkStreamCounts runs CheckStreamCounts's checks into r.
func (r *Report) checkStreamCounts(c *StreamCounts) {
	if r.failed(c.PerPassDemand >= 1) {
		r.violate(&Violation{Code: TargetCount, Detail: fmt.Sprintf("per-pass demand D'=%d", c.PerPassDemand)})
		return
	}
	remaining := c.Demand
	var cycles, emitted int
	var waste, inputs int64
	start := 1
	for i, p := range c.Passes {
		d := c.PerPassDemand
		if remaining < d {
			d = remaining
		}
		wantEmit := d + d%2 // rounded up to even
		if r.failed(p.Emits == wantEmit) {
			r.violate(&Violation{Code: TargetCount, Detail: fmt.Sprintf("pass %d emits %d droplets, closed form wants %d", i+1, p.Emits, wantEmit)})
		}
		if r.failed(p.StartCycle == start) {
			r.violate(&Violation{Code: ScheduleOrder, Detail: fmt.Sprintf("pass %d starts at cycle %d, want %d", i+1, p.StartCycle, start)})
		}
		if c.Storage > 0 && r.failed(p.Storage <= c.Storage) {
			r.violate(&Violation{Code: StorageOccupancy, Detail: fmt.Sprintf("pass %d occupies %d storage units, q'=%d", i+1, p.Storage, c.Storage)})
		}
		start += p.Cycles
		cycles += p.Cycles
		emitted += p.Emits
		waste += p.Waste
		inputs += p.Inputs
		remaining -= p.Emits
	}
	if r.failed(remaining <= 0) {
		r.violate(&Violation{Code: TargetCount, Detail: fmt.Sprintf("passes cover only %d of D=%d droplets", c.Demand-remaining, c.Demand)})
	}
	wantPasses := (c.Demand + c.PerPassDemand - 1) / c.PerPassDemand
	if r.failed(len(c.Passes) == wantPasses) {
		r.violate(&Violation{Code: TargetCount, Detail: fmt.Sprintf("%d passes, ⌈D/D'⌉ = %d", len(c.Passes), wantPasses)})
	}
	if r.failed(c.Emitted == emitted) {
		r.violate(&Violation{Code: TargetCount, Detail: fmt.Sprintf("plan claims %d emitted, passes sum to %d", c.Emitted, emitted)})
	}
	if r.failed(c.Emitted >= c.Demand && c.Emitted-c.Demand <= 1) {
		r.violate(&Violation{Code: TargetCount, Detail: fmt.Sprintf("emitted %d for demand %d (surplus must be 0 or 1)", c.Emitted, c.Demand)})
	}
	if r.failed(c.TotalCycles == cycles) {
		r.violate(&Violation{Code: ScheduleOrder, Detail: fmt.Sprintf("plan claims %d total cycles, passes sum to %d", c.TotalCycles, cycles)})
	}
	if r.failed(c.TotalWaste == waste) {
		r.violate(&Violation{Code: MassConservation, Detail: fmt.Sprintf("plan claims %d waste, passes sum to %d", c.TotalWaste, waste)})
	}
	if r.failed(c.TotalInputs == inputs) {
		r.violate(&Violation{Code: MassConservation, Detail: fmt.Sprintf("plan claims %d inputs, passes sum to %d", c.TotalInputs, inputs)})
	}
}
