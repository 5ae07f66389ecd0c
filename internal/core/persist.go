package core

import (
	"errors"
	"fmt"

	"repro/internal/audit"
	"repro/internal/forest"
	"repro/internal/obs"
	"repro/internal/plancache"
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
// storage cells between batches, which windowStorage accounts for exactly.
//
// The engine's one mutable planning state is a forest.PackedBuilder. A
// Request adds its trees there, schedules them as a window, and checks the
// window; only then does the pointer forest the batches read grow by the
// window's tasks. A failed Request rebuilds the builder's committed trees
// and leaves no trace. Each batch's schedule covers its window only, so it
// reads the same however far later Requests grow the forest. A batch's
// pass carries its window as a plan in pointer forms (plancache.FromForms)
// with the window's own stats.

// ErrPersistStorage reports that a persistent batch (including the droplets
// carried in the pool) exceeds the configured storage budget.
var ErrPersistStorage = errors.New("core: persistent batch exceeds the storage budget")

// requestPersistent plans n more droplets on the engine's growing forest.
// Callers hold e.mu: the pool, the kernel, the timeline counters and the
// batch list are all mutated here.
func (e *Engine) requestPersistent(n int) (*Batch, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: %w: %d", forest.ErrBadDemand, n)
	}
	// The window's tasks join a copy of the committed forest's header; it
	// becomes the engine's forest once every check below has passed.
	grown := forest.Forest{Base: e.base}
	if e.pooled == nil {
		e.pool.Reset(e.base)
	} else {
		grown = *e.pooled
	}
	startID, poolBefore := len(grown.Tasks), e.pool.PoolSize()
	trees := (n + 1) / 2
	for i := 0; i < trees; i++ {
		e.pool.AddTree()
	}
	pf := e.pool.Forest()
	var err error
	switch e.cfg.Scheduler {
	case stream.SRS:
		err = e.kernel.SRSFrom(pf, e.mixers, startID)
	default:
		err = e.kernel.MMSFrom(pf, e.mixers, startID)
	}
	if err != nil {
		return nil, e.rewind(err)
	}
	pf.Grow(&grown)
	s := e.kernel.Materialize(&grown)
	// Incremental schedules bypass stream.plan's cache-entry audit, so the
	// schedule-level invariants (precedence, mixer exclusivity, Alg. 3
	// storage accounting) are checked here before the batch is promised.
	if rep := audit.CheckSchedule(s); !rep.Clean() {
		obs.Add("audit.violations", int64(len(rep.Violations)))
		return nil, e.rewind(fmt.Errorf("core: persistent batch audit: %w", rep.Err()))
	}
	poolAfter := e.pool.PoolSize()
	q := windowStorage(s, poolAfter)
	if e.cfg.Storage > 0 && q > e.cfg.Storage {
		return nil, e.rewind(fmt.Errorf("%w: need %d, have %d (request fewer droplets per batch or disable PersistPool)",
			ErrPersistStorage, q, e.cfg.Storage))
	}
	grown.Link(startID)
	e.pooled = &grown

	// The window's own stats: its trees, tasks and inputs, and as waste
	// every spare droplet it left in the pool.
	st := forest.Stats{
		Trees:   trees,
		Mixes:   len(s.Slots),
		Targets: 2 * trees,
		Waste:   int64(poolAfter - poolBefore),
		Inputs:  make([]int64, e.base.Target.N()),
	}
	for _, t := range s.Tasks() {
		for _, src := range t.In {
			if src.Kind == forest.Input {
				st.Inputs[src.Fluid]++
				st.InputTotal++
			} else if src.Reused {
				st.Reuses++
			}
		}
	}
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
			Plan:       plancache.FromForms(&grown, s, st, q),
			Storage:    q,
			Waste:      st.Waste,
			Inputs:     st.InputTotal,
			StartCycle: 1,
		}},
		TotalCycles: s.Cycles,
		TotalWaste:  st.Waste,
		TotalInputs: st.InputTotal,
		Emitted:     2 * trees,
	}
	b := &Batch{Request: n, Result: res, StartCycle: e.elapsed + 1}
	e.batches = append(e.batches, b)
	e.elapsed += s.Cycles
	e.emitted += res.Emitted
	return b, nil
}

// rewind drops a failed Request's trees from the pool and returns err.
// AddTree is deterministic, so rebuilding the committed trees restores the
// pool exactly.
func (e *Engine) rewind(err error) error {
	e.pool.Reset(e.base)
	if e.pooled != nil {
		for range e.pooled.Trees {
			e.pool.AddTree()
		}
	}
	return err
}

// windowStorage is the exact peak storage occupancy of the persistent
// window s when pool spare droplets wait in the pool at its end: the
// window's hand-offs (Algorithm 3, via StorageProfile; droplets pooled by
// earlier windows count from cycle 1), plus every spare still pooled,
// stored from the cycle after a window task made it, or from cycle 1 if an
// earlier window did.
func windowStorage(s *sched.Schedule, pool int) int {
	profile := sched.StorageProfile(s)
	carried := pool
	for _, t := range s.Tasks() {
		free := t.FreeOutputs()
		carried -= free
		for c := s.At(t).Cycle + 1; c <= s.Cycles; c++ {
			profile[c] += free
		}
	}
	peak := 0
	for _, v := range profile[1:] {
		peak = max(peak, v+carried)
	}
	return peak
}

// PoolSize returns the number of spare droplets currently waiting in the
// persistent pool (0 when PersistPool is off or nothing has run yet).
func (e *Engine) PoolSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pool.PoolSize()
}

// Forest returns the engine's forest as of its last successful Request in
// persistent mode (nil otherwise). Later Requests grow the forest past the
// returned one's tasks and trees, which stay as they are, but may consume
// the spare droplets they pooled.
func (e *Engine) Forest() *forest.Forest {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pooled
}
