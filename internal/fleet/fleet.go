// Package fleet multiplexes queued assays over a farm of simulated DMF
// chips — the production shape of the DAC 2014 streaming engine, where
// "one pristine chip per request" becomes N heterogeneous chips that
// degrade progressively (fault rates ramp with wear, mixers die) rather
// than failing cleanly.
//
// The scheduler bin-packs assays onto chips by mixer and storage demand,
// subject to the cross-assay contamination constraint of internal/contam
// (droplet streams of different composition never share a chip
// concurrently; following a different composition charges a wash pass).
// Execution closes the loop through internal/runtime with each chip's live
// fault rate fed to the deterministic injector of internal/faults, so a
// degrading chip really does corrupt splits and lose droplets — and the
// runtime's recovery ladder, the audit ledger and this scheduler's
// reassignment logic all see it.
//
// Failure handling is never silent: an assay that hits ErrUnrecoverable
// (or an audit violation) on a chip trips that chip's circuit breaker
// bookkeeping and is reassigned to another chip under capped exponential
// backoff with jitter; a breaker that sees enough consecutive failures
// opens and stops admitting until a cooldown expires, after which a single
// half-open probe decides its fate. When every chip is open or dead, or
// the admission queue is full, Run fails fast with a typed error the
// server maps to 429/503 + Retry-After.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cancel"
	"repro/internal/chip"
	"repro/internal/contam"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/forest"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/ratio"
	"repro/internal/runtime"
	"repro/internal/stream"
)

// Typed fleet errors.
var (
	// ErrSaturated reports a full admission queue — the caller should shed
	// load (HTTP 429 + Retry-After).
	ErrSaturated = errors.New("fleet: admission queue full")
	// ErrNoChips reports a fleet with no chip that could ever admit work
	// again (every chip dead). HTTP 503.
	ErrNoChips = errors.New("fleet: no usable chips")
	// ErrAssayFailed reports an assay that failed on every attempted chip
	// within the attempt budget; it wraps the last chip's error. HTTP 502.
	ErrAssayFailed = errors.New("fleet: assay failed on every attempted chip")
)

// AssaySpec is one queued assay: a target mixture, its droplet demand and
// its resource envelope.
type AssaySpec struct {
	Target    ratio.Ratio
	Algorithm core.Algorithm
	Scheduler stream.Scheduler
	// Mixers requests an on-chip mixer count (0 = Mlb of the target's MM
	// tree). The grant is clamped to what the assigned chip has free.
	Mixers int
	// Storage is the storage budget q' (0 = unlimited planning; the fleet
	// still reserves a default share of the chip's storage cells).
	Storage int
	// Demand is the number of target droplets.
	Demand int
	// Class is the contamination class; empty defaults to the target ratio
	// string (assays of one composition may share a chip, others may not).
	Class string
	// PlanCache is the plan cache the assay plans and replans through; nil
	// plans uncached. A server passes its own.
	PlanCache *plancache.Cache
}

func (a *AssaySpec) class() string {
	if a.Class != "" {
		return a.Class
	}
	return a.Target.String()
}

// Result is the outcome of one fleet-scheduled assay.
type Result struct {
	// Chip is the chip that completed the assay.
	Chip string
	// Attempts is the number of chips tried (1 = first placement worked).
	Attempts int
	// Reassignments counts failed placements (Attempts - 1).
	Reassignments int
	// Washed reports that a wash pass preceded the assay (residue of a
	// different composition); WashCycles is its cycle cost.
	Washed     bool
	WashCycles int
	// MixersGranted is the mixer share the chip actually gave the assay.
	MixersGranted int
	// Report is the closed-loop execution report (audit included).
	Report *runtime.Report
}

// maxAttempts bounds the chips tried per assay.
const maxAttempts = 3

// Config tunes the fleet. Zero values select defaults.
type Config struct {
	// Chips describes the farm; empty defaults to DefaultChips(4).
	Chips []ChipSpec
	// BaseBackoff/MaxBackoff shape the capped exponential backoff between
	// reassignments (defaults 10ms / 500ms); jitter adds up to 50%.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a chip's
	// breaker (default 3); BreakerCooldown its first cooldown (default
	// 250ms, doubling per re-open up to 16x).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// MaxQueue bounds assays waiting for a placement (default 256).
	MaxQueue int
	// StorageDemand is the storage-cell reservation for assays that plan
	// with unlimited storage (default 4).
	StorageDemand int
	// WashCycles is the cycle cost charged for a wash pass (default 4).
	WashCycles int
	// Policy is the closed-loop execution policy; its RecoveryBudget
	// defaults to 256 extra cycles per pass so heavily degraded chips fail
	// (and trip breakers) instead of burning unbounded recovery work.
	Policy runtime.Policy
	// Seed feeds per-assay fault-injector seeds and the backoff jitter.
	Seed int64
}

func (c Config) withDefaults() Config {
	if len(c.Chips) == 0 {
		c.Chips = DefaultChips(4)
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 10 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 500 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 250 * time.Millisecond
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.StorageDemand <= 0 {
		c.StorageDemand = 4
	}
	if c.WashCycles <= 0 {
		c.WashCycles = 4
	}
	if c.Policy.RecoveryBudget == 0 {
		c.Policy.RecoveryBudget = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Fleet schedules assays over the chip farm. Safe for concurrent use.
type Fleet struct {
	cfg   Config
	chips []*Chip

	mu     sync.Mutex
	queued int
	rng    *rand.Rand

	// now/sleep are stubbed by tests.
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error
}

// New builds a fleet from the configuration.
func New(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	f := &Fleet{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		now: time.Now,
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return cancel.Check(ctx)
			}
		},
	}
	for _, spec := range cfg.Chips {
		f.chips = append(f.chips, &Chip{
			spec:      spec,
			faultRate: spec.BaseFaultRate,
			tracker:   contam.NewResidueTracker(),
			breaker: breaker{
				threshold:   cfg.BreakerThreshold,
				cooldown:    cfg.BreakerCooldown,
				maxCooldown: 16 * cfg.BreakerCooldown,
			},
		})
	}
	return f
}

// Size returns the number of chips in the fleet.
func (f *Fleet) Size() int { return len(f.chips) }

// placement is a reserved slot on a chip, snapshotting everything execute
// needs so it can run without the fleet lock.
type placement struct {
	chip       *Chip
	mixers     int // granted mixer share
	storage    int // reserved storage cells
	faultRate  float64
	seed       int64
	washNeeded bool
}

// Run schedules, places and executes one assay, reassigning it across
// chips (with capped exponential backoff + jitter) when a chip fails it
// unrecoverably. The returned Result carries the closed-loop execution
// report of the successful attempt.
func (f *Fleet) Run(ctx context.Context, a AssaySpec) (*Result, error) {
	if a.Demand <= 0 {
		return nil, fmt.Errorf("fleet: %w: %d", forest.ErrBadDemand, a.Demand)
	}
	// Resolve the assay's mixer demand (Mlb when unspecified) via a probe
	// engine; base graphs and Mlb are memoised process-wide, so this costs
	// a cache hit steady-state.
	probe, err := core.New(core.Config{
		Target: a.Target, Algorithm: a.Algorithm, Scheduler: a.Scheduler,
		Mixers: a.Mixers, Storage: a.Storage,
	})
	if err != nil {
		return nil, err
	}
	need := probe.Mixers()

	done := obs.StartTimer("fleet.assay_ms")
	defer done()
	obs.Inc("fleet.assays")

	res := &Result{}
	excluded := map[*Chip]bool{}
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		pl, err := f.acquire(ctx, &a, need, excluded)
		if err != nil {
			obs.Inc("fleet.assays_failed")
			return nil, err
		}
		res.Attempts = attempt + 1
		rep, runErr := f.execute(ctx, &a, pl)
		f.release(&a, pl, runErr)
		if runErr == nil {
			res.Chip = pl.chip.spec.Name
			res.MixersGranted = pl.mixers
			res.Washed = pl.washNeeded
			if pl.washNeeded {
				res.WashCycles = f.cfg.WashCycles
			}
			res.Report = rep
			return res, nil
		}
		if !isChipFault(runErr) {
			// The client asked for something impossible (or hung up); no
			// chip is to blame and no other chip would do better.
			obs.Inc("fleet.assays_failed")
			return nil, runErr
		}
		lastErr = runErr
		res.Reassignments++
		obs.Inc("fleet.reassignments")
		excluded[pl.chip] = true
		if len(excluded) >= len(f.chips) {
			// Every chip has failed this assay once; let later attempts
			// revisit them (their breakers still gate admission).
			excluded = map[*Chip]bool{}
		}
		if attempt+1 < maxAttempts {
			if err := f.backoff(ctx, attempt); err != nil {
				obs.Inc("fleet.assays_failed")
				return nil, err
			}
		}
	}
	obs.Inc("fleet.assays_failed")
	return nil, fmt.Errorf("%w (%d attempts): %w", ErrAssayFailed, maxAttempts, lastErr)
}

// backoff sleeps the capped exponential backoff with jitter for the given
// attempt ordinal.
func (f *Fleet) backoff(ctx context.Context, attempt int) error {
	d := f.cfg.BaseBackoff << attempt
	if d > f.cfg.MaxBackoff {
		d = f.cfg.MaxBackoff
	}
	f.mu.Lock()
	jitter := time.Duration(f.rng.Int63n(int64(d)/2 + 1))
	f.mu.Unlock()
	obs.Inc("fleet.backoff_sleeps")
	obs.Observe("fleet.backoff_ms", float64((d+jitter).Microseconds())/1000)
	return f.sleep(ctx, d+jitter)
}

// acquire blocks until the assay is placed on a chip, the queue overflows
// (ErrSaturated), the fleet is hopeless (ErrNoChips) or ctx ends. The
// returned placement has its resources reserved.
func (f *Fleet) acquire(ctx context.Context, a *AssaySpec, need int, excluded map[*Chip]bool) (*placement, error) {
	const pollEvery = 2 * time.Millisecond
	t0 := time.Now()
	joined := false
	defer func() {
		if joined {
			f.mu.Lock()
			f.queued--
			f.mu.Unlock()
		}
		obs.Observe("fleet.queue_wait_ms", float64(time.Since(t0).Microseconds())/1000)
	}()
	for {
		f.mu.Lock()
		if pl := f.placeLocked(a, need, excluded); pl != nil {
			f.mu.Unlock()
			return pl, nil
		}
		if f.allDeadLocked() {
			f.mu.Unlock()
			return nil, ErrNoChips
		}
		if !joined {
			if f.queued >= f.cfg.MaxQueue {
				f.mu.Unlock()
				obs.Inc("fleet.saturated")
				return nil, ErrSaturated
			}
			f.queued++
			joined = true
			obs.Inc("fleet.queued")
		}
		f.mu.Unlock()
		if err := f.sleep(ctx, pollEvery); err != nil {
			return nil, err
		}
	}
}

// placeLocked picks the best admissible chip and reserves it, or returns
// nil when nothing can take the assay right now.
func (f *Fleet) placeLocked(a *AssaySpec, need int, excluded map[*Chip]bool) *placement {
	now := f.now()
	class := a.class()
	storage := a.Storage
	if storage <= 0 {
		storage = f.cfg.StorageDemand
	}
	var best *Chip
	var bestScore float64
	for _, c := range f.chips {
		if excluded[c] || c.dead() || !c.breaker.canAdmit(now) {
			continue
		}
		avail := c.usableMixers()
		if avail < 1 || c.usedStorage+storage > c.spec.Storage {
			continue
		}
		if !c.tracker.CanAdmit(class) {
			continue
		}
		grant := need
		if grant > avail {
			grant = avail
		}
		// Bin-packing score: best fit on mixer slack (leave the big chips
		// free for demanding assays), avoid washes, avoid degraded chips,
		// spread load.
		score := -float64(avail-grant) * 0.5
		if c.tracker.Residue() == "" || c.tracker.Residue() == class {
			score += 10
		}
		// The degradation penalty is load-aware: sub-saturation the full
		// −50·faultRate routes around degraded chips entirely (E11's
		// route-around finding), but once callers are queued behind
		// placement, shunning an admissible degraded chip only deepens the
		// queue — so the penalty decays with admission pressure and the
		// overflow spills onto degraded chips, which either absorb it or
		// fail fast into their breakers.
		pressure := float64(f.queued) / float64(len(f.chips))
		score -= c.faultRate * 50 / (1 + pressure)
		score -= float64(c.inflight)
		if best == nil || score > bestScore {
			best, bestScore = c, score
		}
	}
	if best == nil {
		return nil
	}
	if f.queued > 0 && best.faultRate > degradedFaultRate {
		obs.Inc("fleet.overflow_admissions")
	}
	grant := need
	if avail := best.usableMixers(); grant > avail {
		grant = avail
	}
	best.breaker.admit(now)
	washNeeded := best.tracker.Admit(class)
	best.usedMixers += grant
	best.usedStorage += storage
	best.inflight++
	best.seq++
	if washNeeded {
		obs.Inc("fleet.washes")
	}
	return &placement{
		chip:       best,
		mixers:     grant,
		storage:    storage,
		faultRate:  best.faultRate,
		seed:       f.cfg.Seed + int64(1e9)*best.seq + int64(best.assaysRun),
		washNeeded: washNeeded,
	}
}

// allDeadLocked reports a fleet where no chip will ever admit again.
func (f *Fleet) allDeadLocked() bool {
	for _, c := range f.chips {
		if !c.dead() {
			return false
		}
	}
	return true
}

// execute plans and cyberphysically runs the assay on the placed chip,
// outside the fleet lock.
func (f *Fleet) execute(ctx context.Context, a *AssaySpec, pl *placement) (*runtime.Report, error) {
	eng, err := core.New(core.Config{
		Target: a.Target, Algorithm: a.Algorithm, Scheduler: a.Scheduler,
		Mixers: pl.mixers, Storage: a.Storage, PlanCache: a.PlanCache,
	})
	if err != nil {
		return nil, err
	}
	b, err := eng.RequestCtx(ctx, a.Demand)
	if err != nil {
		return nil, err
	}
	cells := pl.storage
	if cells < 8 {
		cells = 8
	}
	layout, err := chip.AutoLayout(a.Target.N(), eng.Mixers(), cells)
	if err != nil {
		return nil, err
	}
	var inj *faults.Injector
	if pl.faultRate > 0 {
		rate := pl.faultRate
		if rate >= 0.99 {
			rate = 0.99
		}
		inj, err = faults.New(faults.Rate(pl.seed, rate))
		if err != nil {
			return nil, err
		}
	}
	return eng.ExecuteBatchCtx(ctx, b, layout, inj, f.cfg.Policy)
}

// release returns the placement's resources and updates breaker, wear and
// failure bookkeeping from the run's outcome.
func (f *Fleet) release(a *AssaySpec, pl *placement, runErr error) {
	c := pl.chip
	f.mu.Lock()
	defer f.mu.Unlock()
	c.usedMixers -= pl.mixers
	c.usedStorage -= pl.storage
	c.inflight--
	c.tracker.Release(a.class())
	switch {
	case runErr == nil:
		c.assaysRun++
		c.breaker.success()
		// Progressive wear: every completed assay leaves the chip a little
		// worse. (Failed assays count as failures, not wear.)
		c.faultRate += c.spec.WearPerAssay
		if c.faultRate > 0.95 {
			c.faultRate = 0.95
		}
	case isChipFault(runErr):
		c.failures++
		if c.breaker.failure(f.now()) {
			obs.Inc("fleet.breaker_opens")
		}
	}
}

// isChipFault separates "this chip failed the assay" (retry elsewhere,
// charge the breaker) from client errors and cancellations (no chip is to
// blame).
func isChipFault(err error) bool {
	switch {
	case errors.Is(err, cancel.ErrCanceled),
		errors.Is(err, core.ErrBadConfig),
		errors.Is(err, core.ErrNoTarget),
		errors.Is(err, forest.ErrBadDemand),
		errors.Is(err, stream.ErrStorage):
		return false
	default:
		return true
	}
}

// DegradeChip forces degradation onto a named chip: a new fault rate
// and/or additional dead mixers. Used by chaos/bench harnesses to model
// chip churn, and by operators to quarantine hardware.
func (f *Fleet) DegradeChip(name string, faultRate float64, killMixers int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.chips {
		if c.spec.Name != name {
			continue
		}
		if faultRate >= 0 {
			c.faultRate = faultRate
		}
		c.deadMixers += killMixers
		if c.deadMixers > c.spec.Mixers {
			c.deadMixers = c.spec.Mixers
		}
		obs.Inc("fleet.degraded")
		return nil
	}
	return fmt.Errorf("fleet: no chip named %q", name)
}

// Health snapshots every chip's live state, in fleet order.
func (f *Fleet) Health() []ChipHealth {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]ChipHealth, len(f.chips))
	for i, c := range f.chips {
		out[i] = ChipHealth{
			Name:         c.spec.Name,
			State:        c.state(),
			FaultRate:    c.faultRate,
			Mixers:       c.spec.Mixers,
			DeadMixers:   c.deadMixers,
			Storage:      c.spec.Storage,
			Inflight:     c.inflight,
			AssaysRun:    c.assaysRun,
			Failures:     c.failures,
			Washes:       c.tracker.Washes(),
			BreakerOpens: c.breaker.opens,
		}
	}
	return out
}

// Available reports whether any chip currently admits new work (used by
// the readiness endpoint: an all-open/all-dead fleet is not ready).
func (f *Fleet) Available() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.now()
	for _, c := range f.chips {
		if !c.dead() && c.breaker.canAdmit(now) {
			return true
		}
	}
	return false
}

// Queued returns the number of assays waiting for a placement.
func (f *Fleet) Queued() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.queued
}
