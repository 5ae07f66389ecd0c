package core

import (
	"errors"
	"fmt"
	"slices"

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
// Request adds its trees there, schedules them as a window and checks the
// batch's plan, a slab over the committed history plus the window
// (plancache.NewWindow); only then does the history grow by the window. A
// failed Request rebuilds the builder's committed trees and leaves no
// trace. The history is append-only, so a batch reads the same however far
// later batches grow it, and a Request's work is its window's.

// ErrPersistStorage reports that a persistent batch (including the droplets
// carried in the pool) exceeds the configured storage budget.
var ErrPersistStorage = errors.New("core: persistent batch exceeds the storage budget")

// persistent is a persistent-pool engine's planning state, which only
// PersistPool engines allocate.
type persistent struct {
	pool    forest.PackedBuilder // the growing forest
	kernel  sched.Kernel         // schedules the pool's windows
	history forest.PackedForest  // the pool's committed trees, append-only; batches' plans share its prefix
}

// requestPersistent plans n > 0 more droplets on the engine's growing
// forest. Callers hold e.mu: the pool, the kernel, the history, the
// timeline counters and the batch list are all mutated here.
func (e *Engine) requestPersistent(n int) (*Batch, error) {
	ps := e.persist
	h := &ps.history
	if h.NumTrees() == 0 {
		ps.pool.Reset(e.base)
	}
	start, committed, pooled := len(h.Tasks), h.NumTrees(), ps.pool.PoolSize()
	trees := (n + 1) / 2
	for i := 0; i < trees; i++ {
		ps.pool.AddTree()
	}
	pf := ps.pool.Forest()
	var err error
	algorithm := "MMS"
	switch e.cfg.Scheduler {
	case stream.SRS:
		algorithm = "SRS"
		err = ps.kernel.SRSFrom(pf, e.mixers, start)
	default:
		err = ps.kernel.MMSFrom(pf, e.mixers, start)
	}
	if err != nil {
		return nil, e.rewind(err)
	}
	// The batch's slab is a copy of the history's header grown by the
	// window and clipped at its end; tasks are write-once, so no later
	// window changes it. The builder's arena is not shared, as a failed
	// Request rebuilds it. Earlier batches keep the arrays they were
	// given, so the task array at least doubles when full.
	if need := len(pf.Tasks); need > cap(h.Tasks) {
		h.Tasks = slices.Grow(h.Tasks, need)
	}
	grown := forest.PackedForest{
		Base:      e.base,
		Demand:    pf.Demand,
		Tasks:     append(h.Tasks, pf.Tasks[start:]...),
		TreeStart: append(h.TreeStart, pf.TreeStart[committed:]...),
	}
	slab := forest.PackedForest{Base: e.base, Demand: pf.Demand,
		Tasks: slices.Clip(grown.Tasks), TreeStart: slices.Clip(grown.TreeStart)}
	slots := append([]sched.Assignment(nil), ps.kernel.Assignments()...)
	cycles := ps.kernel.Cycles()
	q := windowStorage(&slab, start, pooled, slots, cycles)
	p := plancache.NewWindow(slab, start, pooled, slots, algorithm, e.mixers, cycles, q)
	// Persistent batches bypass stream.BuildPlan, so the batch's plan is
	// audited here, as every built plan is, before it is promised.
	if rep := audit.CheckPacked(p); !rep.Clean() {
		obs.Add("audit.violations", int64(len(rep.Violations)))
		return nil, e.rewind(fmt.Errorf("core: persistent batch audit: %w", rep.Err()))
	}
	if e.cfg.Storage > 0 && q > e.cfg.Storage {
		return nil, e.rewind(fmt.Errorf("%w: need %d, have %d (request fewer droplets per batch or disable PersistPool)",
			ErrPersistStorage, q, e.cfg.Storage))
	}
	*h = grown

	st := p.Stats
	res := &stream.Result{
		Config:        stream.Config{Base: e.base, Mixers: e.mixers, Storage: e.cfg.Storage, Scheduler: e.cfg.Scheduler},
		Demand:        n,
		PerPassDemand: 2 * trees,
		Passes:        []stream.Pass{{Demand: 2 * trees, Plan: p, Storage: q, Waste: st.Waste, Inputs: st.InputTotal, StartCycle: 1}},
		TotalCycles:   cycles,
		TotalWaste:    st.Waste,
		TotalInputs:   st.InputTotal,
		Emitted:       2 * trees,
	}
	b := &Batch{Request: n, Result: res, StartCycle: e.elapsed + 1}
	e.batches = append(e.batches, b)
	e.elapsed += cycles
	e.emitted += res.Emitted
	return b, nil
}

// rewind drops a failed Request's trees from the pool and returns err.
// AddTree is deterministic, so rebuilding the committed trees restores the
// pool exactly.
func (e *Engine) rewind(err error) error {
	ps := e.persist
	ps.pool.Reset(e.base)
	for range ps.history.NumTrees() {
		ps.pool.AddTree()
	}
	return err
}

// windowStorage is the exact peak storage occupancy of the window of f
// from task first on, run in cycles 1..cycles by slots (slots[i] places
// task first+i), with pooled spares in the pool as it starts. Every
// droplet a window task makes but does not emit is stored from the cycle
// after its task ran until the cycle a task consumes it (Algorithm 3's
// hand-offs) or, left pooled, to the window's end; each pooled spare is
// stored from cycle 1 the same way.
func windowStorage(f *forest.PackedForest, first, pooled int, slots []sched.Assignment, cycles int) int {
	diff := make([]int, cycles+2)
	for k := f.TreesBefore(first); k < f.NumTrees(); k++ {
		lo, hi := f.Span(k)
		for i := lo; i < hi; i++ {
			ran := int(slots[int(i)-first].Cycle)
			if i < hi-1 { // a root emits both droplets
				diff[ran+1] += 2
			}
			for _, src := range f.Tasks[i].In {
				if src.Kind() == forest.FromTask {
					diff[ran]--
				}
			}
		}
	}
	peak, occ := 0, pooled
	for _, d := range diff[1 : cycles+1] {
		occ += d
		peak = max(peak, occ)
	}
	return peak
}

// PoolSize returns the number of spare droplets currently waiting in the
// persistent pool (0 when PersistPool is off or nothing has run yet).
func (e *Engine) PoolSize() int {
	if e.persist == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.persist.pool.PoolSize()
}
