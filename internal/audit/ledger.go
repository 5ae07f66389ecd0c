package audit

import (
	"fmt"
	"math"

	"repro/internal/errormodel"
	"repro/internal/ratio"
)

// Strict, policy-independent tolerances for the execution-level ledger.
// The engine's arithmetic is exact: droplet volumes are sums/halves of unit
// volumes and CF values are dyadic rationals, both represented exactly in
// float64 at every supported depth, so a healthy run deviates by at most a
// few ulps. Any larger deviation — in particular one inside a miscalibrated
// sensor's acceptance band — is a real physical corruption and is flagged.
const (
	// VolumeTolerance bounds |volume − ideal| at mix-splits and emissions.
	VolumeTolerance = 1e-9
	// CFTolerance bounds the L∞ CF deviation from the exact plan vector.
	CFTolerance = 1e-9
)

// trailCap bounds the per-run event trail kept for violation context.
const trailCap = 4096

// Ledger is the execution-level droplet auditor: the cyberphysical runtime
// feeds it every droplet event (dispense, mix-split, park, unpark, loss,
// emission), and the ledger verifies — with strict tolerances independent
// of the run's sensing policy — mass conservation at every mix-split,
// exact CF arithmetic, droplet lifecycle sanity, and the emission envelope.
// Close finalises the run: live droplets must be zero and the creation/
// disposition totals must balance.
//
// The trail keeps events as records and renders them only when a check
// fails, and each check formats its message only then, so a clean event
// costs at most the float form of its CF vector.
//
// A nil *Ledger is valid and records nothing (the unaudited escape hatch);
// every method nil-checks.
type Ledger struct {
	nfluids int
	rep     *Report
	live    int
	trail   []event
	dropped int
}

// eventKind discriminates trail events.
type eventKind uint8

const (
	evDispense eventKind = iota
	evFailedShot
	evMixSplit
	evPark
	evUnpark
	evLose
	evEmit
)

// event is one trail entry, rendered by String.
type event struct {
	kind  eventKind
	cycle int
	fluid int          // dispense
	what  string       // mix-split mixer; park, unpark and lose subject
	want  ratio.Vector // mix-split and emit
	vols  [4]float64   // mix-split a, b, hi, lo; emit's volume first
}

func (e event) String() string {
	switch e.kind {
	case evDispense:
		return fmt.Sprintf("c%d dispense fluid %d", e.cycle, e.fluid)
	case evFailedShot:
		return fmt.Sprintf("c%d failed dispense shot", e.cycle)
	case evMixSplit:
		return fmt.Sprintf("c%d mix-split on %s -> %s (vols %.6g+%.6g -> %.6g+%.6g)",
			e.cycle, e.what, e.want.Key(), e.vols[0], e.vols[1], e.vols[2], e.vols[3])
	case evPark:
		return fmt.Sprintf("c%d park %s", e.cycle, e.what)
	case evUnpark:
		return fmt.Sprintf("c%d unpark %s", e.cycle, e.what)
	case evLose:
		return fmt.Sprintf("c%d lose %s", e.cycle, e.what)
	default:
		return fmt.Sprintf("c%d emit %s (vol %.6g)", e.cycle, e.want.Key(), e.vols[0])
	}
}

// NewLedger starts an empty ledger for droplets over nfluids fluids.
func NewLedger(nfluids int) *Ledger {
	return &Ledger{nfluids: nfluids, rep: &Report{}}
}

func (l *Ledger) event(e event) {
	if len(l.trail) >= trailCap {
		l.dropped++
		return
	}
	l.trail = append(l.trail, e)
}

// tail renders the most recent trail entries for violation context.
func (l *Ledger) tail() []string {
	const n = 16
	recent := l.trail[max(len(l.trail)-n, 0):]
	if len(recent) == 0 {
		return nil
	}
	out := make([]string, len(recent))
	for i, e := range recent {
		out[i] = e.String()
	}
	return out
}

// violate records a failed check. Callers test the check with
// l.rep.failed and format detail only when it fails.
func (l *Ledger) violate(code Code, cycle int, detail string) {
	l.rep.violate(&Violation{Code: code, Cycle: cycle, Detail: detail, Trail: l.tail()})
}

// Dispense records a successful dispense of a fresh unit droplet.
func (l *Ledger) Dispense(cycle, fluid int) {
	if l == nil {
		return
	}
	l.event(event{kind: evDispense, cycle: cycle, fluid: fluid})
	l.rep.Created++
	l.live++
}

// FailedShot records a malformed dispense that was detected and routed
// straight to waste (it never becomes a live droplet).
func (l *Ledger) FailedShot(cycle int) {
	if l == nil {
		return
	}
	l.event(event{kind: evFailedShot, cycle: cycle})
	l.rep.FailedShots++
}

// MixSplit records an accepted (1:1) mix-split: inputs a and b merged and
// split into hi and lo, planned to produce CF vector want. The ledger
// checks volume conservation (in = out), the balanced-split volume form
// (each half carries (va+vb)/2), and exact CF arithmetic on both halves.
// The trail keeps want, which must not change afterwards.
func (l *Ledger) MixSplit(cycle int, mixer string, a, b, hi, lo errormodel.Droplet, want ratio.Vector) {
	if l == nil {
		return
	}
	l.event(event{kind: evMixSplit, cycle: cycle, what: mixer, want: want,
		vols: [4]float64{a.Volume, b.Volume, hi.Volume, lo.Volume}})
	l.rep.MixSplits++
	in, out := a.Volume+b.Volume, hi.Volume+lo.Volume
	if l.rep.failed(math.Abs(in-out) <= VolumeTolerance) {
		l.violate(MassConservation, cycle, fmt.Sprintf("mix-split on %s: volume in %.9g, out %.9g", mixer, in, out))
	}
	half := in / 2
	if l.rep.failed(math.Abs(hi.Volume-half) <= VolumeTolerance && math.Abs(lo.Volume-half) <= VolumeTolerance) {
		l.violate(MassConservation, cycle,
			fmt.Sprintf("mix-split on %s: halves %.9g/%.9g, want %.9g each", mixer, hi.Volume, lo.Volume, half))
	}
	ideal := want.Floats()
	if l.rep.failed(hi.LinfError(ideal) <= CFTolerance && lo.LinfError(ideal) <= CFTolerance) {
		l.violate(CFExactness, cycle,
			fmt.Sprintf("mix-split on %s: CF error %.3g/%.3g vs exact %s", mixer, hi.LinfError(ideal), lo.LinfError(ideal), want))
	}
	// Two droplets in, two out: live count is unchanged.
}

// Park records a droplet moved into the parked-waste pool (a discard route
// or a degradation survivor).
func (l *Ledger) Park(cycle int, key string) {
	if l == nil {
		return
	}
	l.event(event{kind: evPark, cycle: cycle, what: key})
	l.live--
	l.rep.Pooled++
	if l.rep.failed(l.live >= 0) {
		l.violate(DropletLifecycle, cycle, fmt.Sprintf("parked a droplet that was never created (%s)", key))
	}
}

// Unpark records a droplet fetched back from the parked-waste pool.
func (l *Ledger) Unpark(cycle int, key string) {
	if l == nil {
		return
	}
	l.event(event{kind: evUnpark, cycle: cycle, what: key})
	l.rep.Unpooled++
	l.live++
	if l.rep.failed(l.rep.Pooled-l.rep.Unpooled >= 0) {
		l.violate(DropletLifecycle, cycle, fmt.Sprintf("fetched %s from an empty pool", key))
	}
}

// Lose records a droplet destroyed without disposition: lost in transit,
// rejected at the output port, or stranded by a mixer death.
func (l *Ledger) Lose(cycle int, what string) {
	if l == nil {
		return
	}
	l.event(event{kind: evLose, cycle: cycle, what: what})
	l.live--
	l.rep.Lost++
	if l.rep.failed(l.live >= 0) {
		l.violate(DropletLifecycle, cycle, fmt.Sprintf("lost a droplet that was never created (%s)", what))
	}
}

// Emit records a target droplet delivered to the output port and checks it
// against the strict emission envelope: unit volume and the exact CF of
// the plan, independent of the run's sensing policy. The trail keeps want,
// which must not change afterwards.
func (l *Ledger) Emit(cycle int, want ratio.Vector, d errormodel.Droplet) {
	if l == nil {
		return
	}
	l.event(event{kind: evEmit, cycle: cycle, want: want, vols: [4]float64{d.Volume}})
	l.live--
	l.rep.Emitted++
	if l.rep.failed(l.live >= 0) {
		l.violate(DropletLifecycle, cycle, "emitted a droplet that was never created")
	}
	if l.rep.failed(math.Abs(d.Volume-1) <= VolumeTolerance) {
		l.violate(EmissionTolerance, cycle, fmt.Sprintf("emitted volume %.9g, want 1 (±%g)", d.Volume, VolumeTolerance))
	}
	if cfErr := d.LinfError(want.Floats()); l.rep.failed(cfErr <= CFTolerance) {
		l.violate(EmissionTolerance, cycle, fmt.Sprintf("emitted CF error %.3g vs exact %s", cfErr, want))
	}
}

// Close finalises the run and returns the audit report. minEmitted is the
// demand the run had to meet; exactEmitted, when ≥ 0, is the precise
// emission count of an undegraded run (2 per component tree). Close checks
// that no droplet is still in flight and that every created droplet is
// accounted for: created = emitted + pooled − unpooled + lost.
func (l *Ledger) Close(minEmitted, exactEmitted int) *Report {
	if l == nil {
		return nil
	}
	if l.rep.failed(l.live == 0) {
		l.violate(DropletLifecycle, 0, fmt.Sprintf("%d droplets still in flight at run end", l.live))
	}
	net := l.rep.Emitted + (l.rep.Pooled - l.rep.Unpooled) + l.rep.Lost
	if l.rep.failed(l.rep.Created == net) {
		l.violate(MassConservation, 0, fmt.Sprintf("created %d droplets, disposed %d (emitted %d + pooled %d − unpooled %d + lost %d)",
			l.rep.Created, net, l.rep.Emitted, l.rep.Pooled, l.rep.Unpooled, l.rep.Lost))
	}
	if l.rep.failed(l.rep.Emitted >= minEmitted) {
		l.violate(TargetCount, 0, fmt.Sprintf("emitted %d target droplets, demand was %d", l.rep.Emitted, minEmitted))
	}
	if exactEmitted >= 0 && l.rep.failed(l.rep.Emitted == exactEmitted) {
		l.violate(TargetCount, 0, fmt.Sprintf("emitted %d target droplets, plan promises exactly %d", l.rep.Emitted, exactEmitted))
	}
	return l.rep
}
