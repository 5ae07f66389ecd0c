package audit

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/errormodel"
	"repro/internal/ratio"
)

// Event-stream replays of a hypothetical sensor-broken executor: one test
// per injectable fault class (internal/faults) in which the recovery ladder
// MISSES the fault — the checkpoint sensor accepts what it should reject —
// and the strict, policy-independent ledger still reports it as a typed
// Violation. This is the "no silent mis-mix" guarantee at its last line of
// defence.

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger_violations.txt from the current ledger")

func vec11(t *testing.T) ratio.Vector {
	t.Helper()
	return ratio.MustParse("1:1").Vector()
}

func unit(fluid int) errormodel.Droplet {
	return errormodel.Fresh(fluid, 2, 0)
}

func mixed(vol float64) errormodel.Droplet {
	return errormodel.Droplet{Volume: vol, CF: []float64{0.5, 0.5}}
}

// hasCode reports whether the report contains a violation of the given code.
func hasCode(r *Report, c Code) bool {
	for _, v := range r.Violations {
		if v.Code == c {
			return true
		}
	}
	return false
}

// TestLedgerCleanRun replays a correct 1:1 run: two dispenses, one exact
// mix-split, one emission, one discard. The ledger must close clean with
// exact totals.
func TestLedgerCleanRun(t *testing.T) {
	l := NewLedger(2)
	want := vec11(t)
	l.Dispense(1, 0)
	l.Dispense(1, 1)
	l.MixSplit(2, "M1", unit(0), unit(1), mixed(1), mixed(1), want)
	l.Emit(3, want, mixed(1))
	l.Park(3, want.Key())
	rep := l.Close(1, -1)
	if !rep.Clean() {
		t.Fatalf("clean run flagged: %v", rep.Err())
	}
	if rep.Created != 2 || rep.MixSplits != 1 || rep.Emitted != 1 || rep.Pooled != 1 {
		t.Fatalf("totals: %+v", rep)
	}
	if rep.Err() != nil {
		t.Fatalf("Err() on clean report: %v", rep.Err())
	}
}

// TestEvadedDispenseFail: the injector produced a malformed shot, the
// dispense sensor failed to notice, and the executor went on to mix a
// droplet that was never created. The lifecycle count goes negative.
func TestEvadedDispenseFail(t *testing.T) {
	l := NewLedger(2)
	want := vec11(t)
	l.Dispense(1, 0)
	// Fluid 1's shot failed silently: no Dispense recorded, but the broken
	// executor mixes and emits as if it existed.
	l.MixSplit(2, "M1", unit(0), unit(1), mixed(1), mixed(1), want)
	l.Emit(3, want, mixed(1))
	l.Park(3, want.Key())
	rep := l.Close(1, -1)
	if rep.Clean() {
		t.Fatal("evaded dispense failure passed the audit")
	}
	if !hasCode(rep, DropletLifecycle) && !hasCode(rep, MassConservation) {
		t.Fatalf("want droplet-lifecycle or mass-conservation violation, got %v", rep)
	}
	if !errors.Is(rep.Err(), ErrViolation) {
		t.Fatalf("%v does not wrap ErrViolation", rep.Err())
	}
}

// TestEvadedDropletLoss: a droplet vanished in transit and the guard sensor
// missed it — the executor neither re-dispensed nor recorded the loss. At
// close, a created droplet has no disposition.
func TestEvadedDropletLoss(t *testing.T) {
	l := NewLedger(2)
	want := vec11(t)
	l.Dispense(1, 0)
	l.Dispense(1, 1)
	l.MixSplit(2, "M1", unit(0), unit(1), mixed(1), mixed(1), want)
	l.Emit(3, want, mixed(1))
	// The second half was lost en route to storage; nobody noticed.
	rep := l.Close(1, -1)
	if rep.Clean() {
		t.Fatal("evaded droplet loss passed the audit")
	}
	if !hasCode(rep, DropletLifecycle) {
		t.Fatalf("want droplet-lifecycle violation (droplet still in flight), got %v", rep)
	}
	if !hasCode(rep, MassConservation) {
		t.Fatalf("want mass-conservation violation (created != disposed), got %v", rep)
	}
}

// TestEvadedSplitImbalance: a split came out 60/40 and a miscalibrated
// checkpoint sensor accepted it. Volume is conserved in total — only the
// balanced-split form and the emission envelope betray the fault.
func TestEvadedSplitImbalance(t *testing.T) {
	l := NewLedger(2)
	want := vec11(t)
	l.Dispense(1, 0)
	l.Dispense(1, 1)
	hi, lo := errormodel.Split(errormodel.Mix(unit(0), unit(1)), 0.2)
	l.MixSplit(2, "M1", unit(0), unit(1), hi, lo, want)
	l.Emit(3, want, hi)
	l.Park(3, want.Key())
	rep := l.Close(1, -1)
	if rep.Clean() {
		t.Fatal("evaded split imbalance passed the audit")
	}
	if !hasCode(rep, MassConservation) {
		t.Fatalf("want mass-conservation violation (unbalanced halves), got %v", rep)
	}
	if !hasCode(rep, EmissionTolerance) {
		t.Fatalf("want emission-tolerance violation (1.2-volume target), got %v", rep)
	}
}

// TestEvadedDeadMixer: a mixer died mid-operation and its stale content was
// carried forward as if freshly mixed — the CF arithmetic no longer matches
// the plan.
func TestEvadedDeadMixer(t *testing.T) {
	l := NewLedger(2)
	want := vec11(t)
	l.Dispense(1, 0)
	l.Dispense(1, 1)
	// The dead mixer never actually merged: both "halves" are still pure
	// fluid 0 — CF (1, 0) instead of the planned (1/2, 1/2).
	stale := errormodel.Droplet{Volume: 1, CF: []float64{1, 0}}
	l.MixSplit(2, "M1", unit(0), unit(1), stale, stale, want)
	l.Emit(3, want, stale)
	l.Park(3, want.Key())
	rep := l.Close(1, -1)
	if rep.Clean() {
		t.Fatal("evaded dead mixer passed the audit")
	}
	if !hasCode(rep, CFExactness) {
		t.Fatalf("want cf-exactness violation, got %v", rep)
	}
	if !hasCode(rep, EmissionTolerance) {
		t.Fatalf("want emission-tolerance violation at the port, got %v", rep)
	}
}

// TestEvadedStuckElectrode: a stuck electrode swapped the transport graph —
// a waste droplet reached the output port instead of the target, carrying
// the wrong concentration vector.
func TestEvadedStuckElectrode(t *testing.T) {
	l := NewLedger(2)
	want := vec11(t)
	l.Dispense(1, 0)
	l.Dispense(1, 1)
	l.MixSplit(2, "M1", unit(0), unit(1), mixed(1), mixed(1), want)
	// The stuck cell re-routed a pure-fluid droplet to the port.
	l.Emit(3, want, unit(0))
	l.Park(3, want.Key())
	// And the real target is still sitting on the chip: lifecycle catches
	// that too, but the headline violation is the emission envelope.
	l.Lose(4, "true target stranded behind stuck electrode")
	rep := l.Close(1, -1)
	if rep.Clean() {
		t.Fatal("evaded stuck electrode passed the audit")
	}
	if !hasCode(rep, EmissionTolerance) {
		t.Fatalf("want emission-tolerance violation (wrong CF at port), got %v", rep)
	}
}

// TestExactCountEnforced: a degraded run that silently under-delivers is
// caught by the exact-emission check.
func TestExactCountEnforced(t *testing.T) {
	l := NewLedger(2)
	want := vec11(t)
	l.Dispense(1, 0)
	l.Dispense(1, 1)
	l.MixSplit(2, "M1", unit(0), unit(1), mixed(1), mixed(1), want)
	l.Emit(3, want, mixed(1))
	l.Park(3, want.Key())
	rep := l.Close(1, 2) // plan promised exactly 2 emissions
	if rep.Clean() {
		t.Fatal("under-delivery passed the audit")
	}
	if !hasCode(rep, TargetCount) {
		t.Fatalf("want target-count violation, got %v", rep)
	}
}

// TestViolationCarriesTrail: violations must carry the recent event trail
// for debugging context.
func TestViolationCarriesTrail(t *testing.T) {
	l := NewLedger(2)
	want := vec11(t)
	l.Dispense(1, 0)
	l.Dispense(1, 1)
	hi, lo := errormodel.Split(errormodel.Mix(unit(0), unit(1)), 0.3)
	l.MixSplit(5, "M2", unit(0), unit(1), hi, lo, want)
	l.Park(6, want.Key())
	l.Park(6, want.Key())
	rep := l.Close(0, -1)
	if rep.Clean() {
		t.Fatal("expected violations")
	}
	v := rep.Violations[0]
	if len(v.Trail) == 0 {
		t.Fatal("violation carries no event trail")
	}
	joined := strings.Join(v.Trail, "\n")
	if !strings.Contains(joined, "mix-split on M2") {
		t.Fatalf("trail misses the mix-split event:\n%s", joined)
	}
	if v.Cycle != 5 {
		t.Fatalf("violation cycle %d, want 5", v.Cycle)
	}
}

// TestNilLedgerIsNoop: the unaudited escape hatch must accept every event
// and close to a nil report without panicking.
func TestNilLedgerIsNoop(t *testing.T) {
	var l *Ledger
	want := ratio.MustParse("1:1").Vector()
	l.Dispense(1, 0)
	l.FailedShot(1)
	l.MixSplit(2, "M1", unit(0), unit(1), mixed(1), mixed(1), want)
	l.Park(3, "k")
	l.Unpark(4, "k")
	l.Lose(5, "x")
	l.Emit(6, want, mixed(1))
	if rep := l.Close(0, -1); rep != nil {
		t.Fatalf("nil ledger closed to non-nil report: %v", rep)
	}
}

// TestTrailBounded: the event trail must not grow without bound on long
// runs; past the cap events are counted, not stored.
func TestTrailBounded(t *testing.T) {
	l := NewLedger(2)
	for i := 0; i < trailCap+100; i++ {
		l.Dispense(i+1, 0)
		l.Lose(i+1, "balancing loss")
	}
	if len(l.trail) != trailCap {
		t.Fatalf("trail length %d, want capped at %d", len(l.trail), trailCap)
	}
	if want := 2*(trailCap+100) - trailCap; l.dropped != want {
		t.Fatalf("dropped %d, want %d", l.dropped, want)
	}
	if rep := l.Close(0, -1); !rep.Clean() {
		t.Fatalf("balanced long run flagged: %v", rep.Err())
	}
}

// TestViolationTextPinned pins the Detail and Trail text of every violation
// one faulty run raises (testdata/ledger_violations.txt): every event kind
// feeds the trail, the trail outgrows the 16 entries a violation carries,
// and every check fails at least once.
func TestViolationTextPinned(t *testing.T) {
	l := NewLedger(2)
	want := vec11(t)
	for c := range 6 {
		l.Dispense(1, c%2)
		l.Lose(1, "balancing loss")
	}
	l.Dispense(1, 0)
	l.FailedShot(1)
	hi, lo := errormodel.Split(errormodel.Mix(unit(0), unit(1)), 0.2)
	l.MixSplit(2, "M1", unit(0), unit(1), hi, lo, want)
	l.MixSplit(2, "M2", unit(0), unit(1), mixed(0.5), mixed(0.5), want)
	stale := errormodel.Droplet{Volume: 1, CF: []float64{1, 0}}
	l.MixSplit(3, "M3", unit(0), unit(1), stale, stale, want)
	l.Emit(4, want, hi)
	l.Emit(4, want, unit(0))
	l.Park(5, want.Key())
	l.Unpark(6, "k")
	l.Unpark(6, "k")
	l.Lose(7, "droplet lost in transit M1->M2")
	rep := l.Close(3, 4)
	var b strings.Builder
	for _, v := range rep.Violations {
		fmt.Fprintf(&b, "%s c%d %s\n", v.Code, v.Cycle, v.Detail)
		for _, e := range v.Trail {
			fmt.Fprintf(&b, "\t%s\n", e)
		}
	}
	const path = "testdata/ledger_violations.txt"
	if *updateLedger {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	pinned, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(pinned) {
		t.Fatalf("violation text changed:\n%s", got)
	}
}

// TestCleanLedgerAllocs pins a clean MixSplit and Emit at one allocation
// each, the float form of the planned CF vector: the trail stores records
// and no check formats its message until it fails.
func TestCleanLedgerAllocs(t *testing.T) {
	want := ratio.MustParse("2:1:1:1:1:1:9").Vector()
	drop := errormodel.Droplet{Volume: 1, CF: want.Floats()}
	l := NewLedger(want.N())
	if allocs := testing.AllocsPerRun(1000, func() {
		l.MixSplit(2, "M1", drop, drop, drop, drop, want)
	}); allocs > 1 {
		t.Errorf("clean MixSplit allocates %.2f objects, want <= 1", allocs)
	}
	for range 1001 { // AllocsPerRun's warm-up call and its 1000 runs
		l.Dispense(1, 0)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		l.Emit(3, want, drop)
	}); allocs > 1 {
		t.Errorf("clean Emit allocates %.2f objects, want <= 1", allocs)
	}
	if !l.rep.Clean() {
		t.Fatalf("clean events flagged: %v", l.rep.Err())
	}
}
