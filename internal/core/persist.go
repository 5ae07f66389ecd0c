package core

import (
	"errors"
	"fmt"

	"repro/internal/audit"
	"repro/internal/forest"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/stream"
)

// Persistent-pool mode: the fully demand-driven engine. In the paper, one
// forest (or pass) is planned per known demand and leftover droplets become
// waste. With PersistPool enabled the engine instead keeps one mixing forest
// growing across Requests: spare droplets left pooled by earlier batches are
// consumed by later ones, so a sequence of small requests approaches the
// droplet economy of one large request (in particular, requests summing to
// p·2^d waste nothing at all). The price is storage: pooled droplets occupy
// storage cells between batches, which PersistentStorage accounts for
// exactly.

// ErrPersistStorage reports that a persistent batch (including the droplets
// carried in the pool) exceeds the configured storage budget.
var ErrPersistStorage = errors.New("core: persistent batch exceeds the storage budget")

// requestPersistent plans n more droplets on the engine's growing forest.
// The engine's kernel schedules only the new window, on the builder's
// packed forest, and materializes it over the builder's live pointer
// forest. Callers hold e.mu: the builder, the kernel, the timeline counters
// and the batch list are all mutated here.
func (e *Engine) requestPersistent(n int) (*Batch, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: %w: %d", forest.ErrBadDemand, n)
	}
	if e.builder == nil {
		e.builder = forest.NewBuilder(e.base)
	}
	f := e.builder.Forest()
	startID := len(f.Tasks)
	before := f.Stats()

	trees := (n + 1) / 2
	for i := 0; i < trees; i++ {
		e.builder.AddTree()
	}
	f = e.builder.Forest()

	var err error
	switch e.cfg.Scheduler {
	case stream.SRS:
		err = e.kernel.SRSFrom(e.builder.Packed(), e.mixers, startID)
	default:
		err = e.kernel.MMSFrom(e.builder.Packed(), e.mixers, startID)
	}
	if err != nil {
		return nil, err
	}
	s := e.kernel.Materialize(f)
	// Incremental schedules bypass stream.plan's cache-entry audit, so the
	// schedule-level invariants (precedence, mixer exclusivity, Alg. 3
	// storage accounting) are checked here before the batch is promised.
	if rep := audit.CheckSchedule(s); !rep.Clean() {
		obs.Add("audit.violations", int64(len(rep.Violations)))
		return nil, fmt.Errorf("core: persistent batch audit: %w", rep.Err())
	}

	q := PersistentStorage(f, s, startID)
	if e.cfg.Storage > 0 && q > e.cfg.Storage {
		return nil, fmt.Errorf("%w: need %d, have %d (request fewer droplets per batch or disable PersistPool)",
			ErrPersistStorage, q, e.cfg.Storage)
	}

	after := f.Stats()
	res := &stream.Result{
		Config: stream.Config{
			Base:      e.base,
			Mixers:    e.mixers,
			Storage:   e.cfg.Storage,
			Scheduler: e.cfg.Scheduler,
		},
		Demand:        n,
		PerPassDemand: 2 * trees,
		Passes: []stream.Pass{{
			Demand:     2 * trees,
			Schedule:   s,
			Storage:    q,
			Waste:      after.Waste - before.Waste,
			Inputs:     after.InputTotal - before.InputTotal,
			StartCycle: 1,
		}},
		TotalCycles: s.Cycles,
		TotalWaste:  after.Waste - before.Waste,
		TotalInputs: after.InputTotal - before.InputTotal,
		Emitted:     2 * trees,
	}
	b := &Batch{Request: n, Result: res, StartCycle: e.elapsed + 1}
	e.batches = append(e.batches, b)
	e.elapsed += s.Cycles
	e.emitted += res.Emitted
	return b, nil
}

// PoolSize returns the number of spare droplets currently waiting in the
// persistent pool (0 when PersistPool is off or nothing has run yet).
func (e *Engine) PoolSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.builder == nil {
		return 0
	}
	return e.builder.PoolSize()
}

// Forest returns the engine's growing forest in persistent mode (nil
// otherwise). The returned forest keeps growing with further Requests;
// concurrent readers must not hold it across another goroutine's Request.
func (e *Engine) Forest() *forest.Forest {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.builder == nil {
		return nil
	}
	return e.builder.Forest()
}

// PersistentStorage computes the exact peak storage occupancy of one
// incremental scheduling window:
//
//   - droplet hand-offs inside the window (Algorithm 3, via StorageProfile;
//     droplets pooled by earlier windows count from cycle 1),
//   - spares that remain pooled at the window's end occupy storage from
//     their production (or from cycle 1, if carried in) to the last cycle.
func PersistentStorage(f *forest.Forest, s *sched.Schedule, startID int) int {
	profile := sched.StorageProfile(s)
	// Spares still pooled at window end: tasks with free outputs.
	for _, t := range f.Tasks {
		free := t.FreeOutputs()
		if free == 0 {
			continue
		}
		from := 1
		if t.ID >= startID {
			from = s.Slots[t.ID].Cycle + 1
		}
		for i := from; i <= s.Cycles; i++ {
			profile[i] += free
		}
	}
	max := 0
	for _, v := range profile {
		if v > max {
			max = v
		}
	}
	return max
}
