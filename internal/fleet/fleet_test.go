package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/forest"
	"repro/internal/ratio"
	"repro/internal/runtime"
)

func mustRatio(t testing.TB, s string) ratio.Ratio {
	t.Helper()
	r, err := ratio.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func quickCfg(chips ...ChipSpec) Config {
	return Config{
		Chips:       chips,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
	}
}

func TestFleetRunsAssay(t *testing.T) {
	f := New(quickCfg(DefaultChips(2)...))
	res, err := f.Run(context.Background(), AssaySpec{
		Target: mustRatio(t, "1:3"), Demand: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chip == "" || res.Report == nil {
		t.Fatalf("incomplete result: %+v", res)
	}
	if res.Attempts != 1 || res.Reassignments != 0 {
		t.Fatalf("healthy fleet took %d attempts, %d reassignments", res.Attempts, res.Reassignments)
	}
	if res.Report.Emitted < 4 {
		t.Fatalf("emitted %d droplets, want >= 4", res.Report.Emitted)
	}
	if err := res.Report.Audit.Err(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	h := f.Health()
	ran := 0
	for _, c := range h {
		ran += c.AssaysRun
	}
	if ran != 1 {
		t.Fatalf("fleet health counts %d assays, want 1", ran)
	}
}

func TestFleetBadDemand(t *testing.T) {
	f := New(quickCfg(DefaultChips(1)...))
	if _, err := f.Run(context.Background(), AssaySpec{Target: mustRatio(t, "1:3")}); !errors.Is(err, forest.ErrBadDemand) {
		t.Fatalf("err = %v, want ErrBadDemand", err)
	}
}

// TestFleetReassignsOnChipFault places the assay on a small, heavily
// faulting chip first (its score beats the huge healthy chip's bin-packing
// slack penalty), watches it fail unrecoverably, and requires the fleet to
// reassign the assay to the healthy chip.
func TestFleetReassignsOnChipFault(t *testing.T) {
	cfg := quickCfg(
		ChipSpec{Name: "bad", Mixers: 3, Storage: 8, BaseFaultRate: 0.9},
		ChipSpec{Name: "good", Mixers: 100, Storage: 8},
	)
	cfg.Policy = runtime.Policy{RecoveryBudget: 1}
	f := New(cfg)
	res, err := f.Run(context.Background(), AssaySpec{Target: mustRatio(t, "1:3"), Demand: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chip != "good" {
		t.Fatalf("assay completed on %q, want reassignment to good", res.Chip)
	}
	if res.Reassignments < 1 {
		t.Fatalf("Reassignments = %d, want >= 1", res.Reassignments)
	}
	for _, h := range f.Health() {
		if h.Name == "bad" && h.Failures < 1 {
			t.Fatalf("bad chip records %d failures, want >= 1", h.Failures)
		}
	}
}

// TestFleetBreakerOpensAndTypedFailure exhausts all attempts on a fleet
// whose only chip always fails: the caller gets ErrAssayFailed wrapping the
// chip error, and enough failures trip the breaker.
func TestFleetBreakerOpensAndTypedFailure(t *testing.T) {
	cfg := quickCfg(ChipSpec{Name: "solo", Mixers: 4, Storage: 8, BaseFaultRate: 0.9})
	cfg.Policy = runtime.Policy{RecoveryBudget: 1}
	cfg.BreakerThreshold = 3
	f := New(cfg)
	_, err := f.Run(context.Background(), AssaySpec{Target: mustRatio(t, "1:3"), Demand: 4})
	if !errors.Is(err, ErrAssayFailed) {
		t.Fatalf("err = %v, want ErrAssayFailed", err)
	}
	if !errors.Is(err, runtime.ErrUnrecoverable) {
		t.Fatalf("err = %v, want wrapped ErrUnrecoverable cause", err)
	}
	h := f.Health()[0]
	if h.State != chipOpen {
		t.Fatalf("solo chip state = %q, want %q", h.State, chipOpen)
	}
	if h.BreakerOpens < 1 {
		t.Fatalf("BreakerOpens = %d, want >= 1", h.BreakerOpens)
	}
	if f.Available() {
		t.Fatal("fleet with its only breaker open must not report Available")
	}
}

func TestFleetSaturated(t *testing.T) {
	cfg := quickCfg(ChipSpec{Name: "solo", Mixers: 2, Storage: 8})
	cfg.MaxQueue = 1
	f := New(cfg)
	// Fill the chip and the queue by hand; Run must shed immediately.
	f.mu.Lock()
	f.chips[0].usedMixers = 2
	f.queued = 1
	f.mu.Unlock()
	_, err := f.Run(context.Background(), AssaySpec{Target: mustRatio(t, "1:3"), Demand: 4})
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
}

func TestFleetNoChips(t *testing.T) {
	cfg := quickCfg(ChipSpec{Name: "solo", Mixers: 2, Storage: 8})
	f := New(cfg)
	if err := f.DegradeChip("solo", -1, 2); err != nil {
		t.Fatal(err)
	}
	if f.Available() {
		t.Fatal("dead fleet reports Available")
	}
	_, err := f.Run(context.Background(), AssaySpec{Target: mustRatio(t, "1:3"), Demand: 4})
	if !errors.Is(err, ErrNoChips) {
		t.Fatalf("err = %v, want ErrNoChips", err)
	}
	if f.Health()[0].State != chipDead {
		t.Fatalf("state = %q, want dead", f.Health()[0].State)
	}
	if err := f.DegradeChip("ghost", 0.5, 0); err == nil {
		t.Fatal("DegradeChip on unknown chip must error")
	}
}

// TestFleetCrossAssayWash runs two different composition classes back to
// back on a one-chip fleet: the second assay must be washed first.
func TestFleetCrossAssayWash(t *testing.T) {
	f := New(quickCfg(ChipSpec{Name: "solo", Mixers: 4, Storage: 8}))
	ctx := context.Background()
	r1, err := f.Run(ctx, AssaySpec{Target: mustRatio(t, "1:3"), Demand: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Washed {
		t.Fatal("first assay on a virgin chip must not wash")
	}
	r2, err := f.Run(ctx, AssaySpec{Target: mustRatio(t, "3:5"), Demand: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Washed || r2.WashCycles == 0 {
		t.Fatalf("second assay of a new class must wash; got %+v", r2)
	}
	if f.Health()[0].Washes != 1 {
		t.Fatalf("Washes = %d, want 1", f.Health()[0].Washes)
	}
}

// TestFleetConcurrentMixedClasses drives many concurrent assays of two
// composition classes over a small fleet. Everything must complete; the
// contamination invariant (no cross-class co-location) is enforced inside
// placeLocked and would surface as a data race or audit failure here.
func TestFleetConcurrentMixedClasses(t *testing.T) {
	f := New(quickCfg(DefaultChips(3)...))
	targets := []string{"1:3", "3:5"}
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancelFn := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancelFn()
			res, err := f.Run(ctx, AssaySpec{
				Target: mustRatio(t, targets[i%2]), Demand: 4,
			})
			if err != nil {
				errs <- fmt.Errorf("assay %d: %w", i, err)
				return
			}
			if err := res.Report.Audit.Err(); err != nil {
				errs <- fmt.Errorf("assay %d audit: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if f.Queued() != 0 {
		t.Fatalf("queue not drained: %d", f.Queued())
	}
}

func TestFleetDegradedStateAndWear(t *testing.T) {
	cfg := quickCfg(ChipSpec{Name: "solo", Mixers: 4, Storage: 8, WearPerAssay: 0.03})
	f := New(cfg)
	if f.Health()[0].State != chipHealthy {
		t.Fatalf("pristine chip state = %q", f.Health()[0].State)
	}
	if _, err := f.Run(context.Background(), AssaySpec{Target: mustRatio(t, "1:3"), Demand: 4}); err != nil {
		t.Fatal(err)
	}
	h := f.Health()[0]
	if h.FaultRate != 0.03 {
		t.Fatalf("fault rate after one assay = %v, want 0.03 wear", h.FaultRate)
	}
	if h.State != chipDegraded {
		t.Fatalf("worn chip state = %q, want degraded", h.State)
	}
}

func TestFleetCanceledContext(t *testing.T) {
	f := New(quickCfg(DefaultChips(1)...))
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	_, err := f.Run(ctx, AssaySpec{Target: mustRatio(t, "1:3"), Demand: 4})
	if err == nil {
		t.Fatal("canceled context must fail the assay")
	}
	if errors.Is(err, ErrAssayFailed) {
		t.Fatalf("cancellation must not be blamed on chips: %v", err)
	}
}

// TestPlacementLoadAwareTieBreak pins the E11 fix: with an empty admission
// queue the scheduler routes around a degraded chip (full −50·faultRate
// penalty), but once callers are queued behind placement the penalty decays
// and an idle degraded chip beats a busy healthy one — overflow work spills
// onto degraded capacity instead of deepening the queue.
func TestPlacementLoadAwareTieBreak(t *testing.T) {
	cfg := quickCfg(
		ChipSpec{Name: "healthy", Mixers: 4, Storage: 64},
		ChipSpec{Name: "degraded", Mixers: 4, Storage: 64, BaseFaultRate: 0.4},
	)
	f := New(cfg)
	spec := &AssaySpec{Target: mustRatio(t, "1:3"), Demand: 4}

	f.mu.Lock()
	// Load the healthy chip: most mixers reserved, deep inflight.
	f.chips[0].usedMixers = 3
	f.chips[0].inflight = 12

	// Sub-saturation: the flat penalty still routes around the degraded chip
	// even though the healthy chip is down to a 1-mixer partial grant.
	f.queued = 0
	pl := f.placeLocked(spec, 4, nil)
	if pl == nil || pl.chip.spec.Name != "healthy" {
		t.Fatalf("idle queue: placed on %v, want healthy", placedName(pl))
	}
	unplaceLocked(pl)

	// Saturation: queued callers decay the penalty; the idle degraded chip
	// absorbs the overflow with a full grant.
	f.queued = 24
	pl = f.placeLocked(spec, 4, nil)
	if pl == nil || pl.chip.spec.Name != "degraded" {
		t.Fatalf("saturated queue: placed on %v, want degraded", placedName(pl))
	}
	if pl.mixers != 4 {
		t.Fatalf("degraded grant = %d mixers, want 4", pl.mixers)
	}
	unplaceLocked(pl)
	f.mu.Unlock()
}

func placedName(pl *placement) string {
	if pl == nil {
		return "<none>"
	}
	return pl.chip.spec.Name
}

// unplaceLocked reverses a placeLocked reservation for test reuse.
func unplaceLocked(pl *placement) {
	if pl == nil {
		return
	}
	pl.chip.usedMixers -= pl.mixers
	pl.chip.usedStorage -= pl.storage
	pl.chip.inflight--
}
