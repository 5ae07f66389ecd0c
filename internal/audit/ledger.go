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
// A nil *Ledger is valid and records nothing (the unaudited escape hatch);
// every method nil-checks.
type Ledger struct {
	nfluids int
	rep     *Report
	live    int
	trail   []string
	dropped int
}

// NewLedger starts an empty ledger for droplets over nfluids fluids.
func NewLedger(nfluids int) *Ledger {
	return &Ledger{nfluids: nfluids, rep: &Report{}}
}

func (l *Ledger) event(format string, args ...any) {
	if len(l.trail) >= trailCap {
		l.dropped++
		return
	}
	l.trail = append(l.trail, fmt.Sprintf(format, args...))
}

// tail returns the most recent trail entries for violation context.
func (l *Ledger) tail() []string {
	const n = 16
	if len(l.trail) <= n {
		return append([]string(nil), l.trail...)
	}
	return append([]string(nil), l.trail[len(l.trail)-n:]...)
}

func (l *Ledger) check(ok bool, code Code, cycle int, format string, args ...any) {
	l.rep.Checks++
	if ok {
		return
	}
	l.rep.Violations = append(l.rep.Violations, &Violation{
		Code:   code,
		Cycle:  cycle,
		Detail: fmt.Sprintf(format, args...),
		Trail:  l.tail(),
	})
}

// Dispense records a successful dispense of a fresh unit droplet.
func (l *Ledger) Dispense(cycle, fluid int) {
	if l == nil {
		return
	}
	l.event("c%d dispense fluid %d", cycle, fluid)
	l.rep.Created++
	l.live++
}

// FailedShot records a malformed dispense that was detected and routed
// straight to waste (it never becomes a live droplet).
func (l *Ledger) FailedShot(cycle int) {
	if l == nil {
		return
	}
	l.event("c%d failed dispense shot", cycle)
	l.rep.FailedShots++
}

// MixSplit records an accepted (1:1) mix-split: inputs a and b merged and
// split into hi and lo, planned to produce CF vector want. The ledger
// checks volume conservation (in = out), the balanced-split volume form
// (each half carries (va+vb)/2), and exact CF arithmetic on both halves.
func (l *Ledger) MixSplit(cycle int, mixer string, a, b, hi, lo errormodel.Droplet, want ratio.Vector) {
	if l == nil {
		return
	}
	l.event("c%d mix-split on %s -> %s (vols %.6g+%.6g -> %.6g+%.6g)",
		cycle, mixer, want.Key(), a.Volume, b.Volume, hi.Volume, lo.Volume)
	l.rep.MixSplits++
	in, out := a.Volume+b.Volume, hi.Volume+lo.Volume
	l.check(math.Abs(in-out) <= VolumeTolerance, MassConservation, cycle,
		"mix-split on %s: volume in %.9g, out %.9g", mixer, in, out)
	half := in / 2
	l.check(math.Abs(hi.Volume-half) <= VolumeTolerance && math.Abs(lo.Volume-half) <= VolumeTolerance,
		MassConservation, cycle,
		"mix-split on %s: halves %.9g/%.9g, want %.9g each", mixer, hi.Volume, lo.Volume, half)
	ideal := want.Floats()
	l.check(hi.LinfError(ideal) <= CFTolerance && lo.LinfError(ideal) <= CFTolerance,
		CFExactness, cycle,
		"mix-split on %s: CF error %.3g/%.3g vs exact %s", mixer, hi.LinfError(ideal), lo.LinfError(ideal), want)
	// Two droplets in, two out: live count is unchanged.
}

// Park records a droplet moved into the parked-waste pool (a discard route
// or a degradation survivor).
func (l *Ledger) Park(cycle int, key string) {
	if l == nil {
		return
	}
	l.event("c%d park %s", cycle, key)
	l.live--
	l.rep.Pooled++
	l.check(l.live >= 0, DropletLifecycle, cycle, "parked a droplet that was never created (%s)", key)
}

// Unpark records a droplet fetched back from the parked-waste pool.
func (l *Ledger) Unpark(cycle int, key string) {
	if l == nil {
		return
	}
	l.event("c%d unpark %s", cycle, key)
	l.rep.Unpooled++
	l.live++
	l.check(l.rep.Pooled-l.rep.Unpooled >= 0, DropletLifecycle, cycle,
		"fetched %s from an empty pool", key)
}

// Lose records a droplet destroyed without disposition: lost in transit,
// rejected at the output port, or stranded by a mixer death.
func (l *Ledger) Lose(cycle int, what string) {
	if l == nil {
		return
	}
	l.event("c%d lose %s", cycle, what)
	l.live--
	l.rep.Lost++
	l.check(l.live >= 0, DropletLifecycle, cycle, "lost a droplet that was never created (%s)", what)
}

// Emit records a target droplet delivered to the output port and checks it
// against the strict emission envelope: unit volume and the exact CF of
// the plan, independent of the run's sensing policy.
func (l *Ledger) Emit(cycle int, want ratio.Vector, d errormodel.Droplet) {
	if l == nil {
		return
	}
	l.event("c%d emit %s (vol %.6g)", cycle, want.Key(), d.Volume)
	l.live--
	l.rep.Emitted++
	l.check(l.live >= 0, DropletLifecycle, cycle, "emitted a droplet that was never created")
	l.check(math.Abs(d.Volume-1) <= VolumeTolerance, EmissionTolerance, cycle,
		"emitted volume %.9g, want 1 (±%g)", d.Volume, VolumeTolerance)
	cfErr := d.LinfError(want.Floats())
	l.check(cfErr <= CFTolerance, EmissionTolerance, cycle, "emitted CF error %.3g vs exact %s", cfErr, want)
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
	l.check(l.live == 0, DropletLifecycle, 0, "%d droplets still in flight at run end", l.live)
	net := l.rep.Emitted + (l.rep.Pooled - l.rep.Unpooled) + l.rep.Lost
	l.check(l.rep.Created == net, MassConservation, 0,
		"created %d droplets, disposed %d (emitted %d + pooled %d − unpooled %d + lost %d)",
		l.rep.Created, net, l.rep.Emitted, l.rep.Pooled, l.rep.Unpooled, l.rep.Lost)
	l.check(l.rep.Emitted >= minEmitted, TargetCount, 0,
		"emitted %d target droplets, demand was %d", l.rep.Emitted, minEmitted)
	if exactEmitted >= 0 {
		l.check(l.rep.Emitted == exactEmitted, TargetCount, 0,
			"emitted %d target droplets, plan promises exactly %d", l.rep.Emitted, exactEmitted)
	}
	return l.rep
}
