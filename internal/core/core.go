// Package core assembles the paper's complete demand-driven
// mixture-preparation engine (MDST): pick a base mixing algorithm, grow
// mixing forests to meet droplet demands as they arrive, schedule them on
// the available mixers with MMS or SRS, and split work into passes when
// on-chip storage is scarce. It also plans the repeated-baseline engines
// (RMM, RRMA, RMTCS) the paper compares against.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/chip"
	"repro/internal/errormodel"
	"repro/internal/faults"
	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/mixgraph"
	"repro/internal/mtcs"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/ratio"
	"repro/internal/rma"
	"repro/internal/route"
	"repro/internal/rsm"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/stream"
)

// Algorithm selects the base mixing-tree builder.
type Algorithm int

const (
	// MM is the MinMix algorithm of Thies et al. [24].
	MM Algorithm = iota
	// RMA is the layout-aware algorithm of Roy et al. [18] (reconstruction).
	RMA
	// MTCS is the reagent-saving algorithm of Kumar et al. [16]
	// (reconstruction).
	MTCS
	// RSM is the reagent-saving algorithm of Hsieh et al. [25]
	// (reconstruction); listed in the paper's Table 1 but not part of its
	// Table 2/3 comparisons.
	RSM
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case MM:
		return "MM"
	case RMA:
		return "RMA"
	case MTCS:
		return "MTCS"
	case RSM:
		return "RSM"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Build constructs the base mixing graph for the target ratio.
func (a Algorithm) Build(r ratio.Ratio) (*mixgraph.Graph, error) {
	switch a {
	case MM:
		return minmix.Build(r)
	case RMA:
		return rma.Build(r)
	case MTCS:
		return mtcs.Build(r)
	case RSM:
		return rsm.Build(r)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %d", int(a))
	}
}

// Algorithms lists the base algorithms the paper evaluates (Tables 2-3).
func Algorithms() []Algorithm { return []Algorithm{MM, RMA, MTCS} }

// AllAlgorithms additionally includes RSM, which the paper names (Table 1)
// but does not benchmark.
func AllAlgorithms() []Algorithm { return []Algorithm{MM, RMA, MTCS, RSM} }

// ParseAlgorithm resolves the paper's algorithm names.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "MM", "mm":
		return MM, nil
	case "RMA", "rma":
		return RMA, nil
	case "MTCS", "mtcs":
		return MTCS, nil
	case "RSM", "rsm":
		return RSM, nil
	default:
		return 0, fmt.Errorf("core: unknown algorithm %q (want MM, RMA, MTCS or RSM)", s)
	}
}

// Config describes one mixture-preparation engine.
type Config struct {
	// Target is the mixture to stream (ratio-sum a power of two).
	Target ratio.Ratio
	// Algorithm is the base mixing-tree builder (default MM).
	Algorithm Algorithm
	// Scheduler is the forest scheduling scheme (default stream.MMS).
	Scheduler stream.Scheduler
	// Mixers is the number of on-chip mixers Mc; 0 uses Mlb of the MM base
	// tree, the paper's experimental setting.
	Mixers int
	// Storage is the number of on-chip storage units q'; 0 means unlimited.
	Storage int
	// PersistPool keeps one mixing forest growing across Requests, so spare
	// droplets pooled by earlier batches feed later ones (see persist.go).
	// The pooled droplets occupy storage between batches; with a Storage
	// budget set, a Request that cannot fit fails with ErrPersistStorage.
	PersistPool bool
	// RecoveryBudget bounds the extra cycles the cyberphysical runtime may
	// spend recovering from faults in any single pass of a batch executed
	// with ExecuteBatch; 0 means unbounded. Planning ignores it.
	RecoveryBudget int
	// PlanCache is the cache the engine plans through; nil plans uncached.
	// See stream.Config.Cache.
	PlanCache *plancache.Cache
	// ErrorPolicy makes the engine's planning error-aware: every Request
	// scores the Config.Algorithm base graph against the other paper
	// algorithms (MM, RMA, MTCS) by analytic CF-error bound under the
	// policy's noise parameters and plans with the most robust admissible
	// one (see stream.Config.ErrorPolicy). Incompatible with PersistPool,
	// whose single growing forest is pinned to one base graph.
	ErrorPolicy *errormodel.Policy
}

// Engine is a demand-driven droplet-streaming engine. Each Request plans the
// emission of additional target droplets, continuing on the engine's
// timeline; the engine never re-plans droplets it has already promised.
//
// Engines are safe for concurrent use: the timeline state (elapsed, emitted,
// batches, the persistent pool) is guarded by an internal mutex, so
// N goroutines hammering one engine serialize their Requests — each batch
// still gets a consistent StartCycle and the timeline never tears. Requests
// are serialized whole (plan included), preserving the engine's promise
// that batches land on the timeline in Request order.
type Engine struct {
	cfg        Config
	base       *mixgraph.Graph
	mixers     int
	candidates []*mixgraph.Graph // alternative bases for error-aware runs

	// mu guards every field below. cfg, base and mixers are immutable after
	// New and readable without it.
	mu      sync.Mutex
	elapsed int
	emitted int
	batches []*Batch
	persist *persistent // persistent-pool mode only (see persist.go)
}

// Batch is the plan for one Request.
type Batch struct {
	// Request is the number of droplets asked for.
	Request int
	// Result is the pass plan producing them.
	Result *stream.Result
	// StartCycle is the absolute engine cycle the batch begins at.
	StartCycle int
}

// ErrNoTarget reports a Config without a target ratio.
var ErrNoTarget = errors.New("core: config has no target ratio")

// ErrBadConfig reports an engine configuration with out-of-range resources
// (negative mixer or storage counts, or a recovery budget below zero).
var ErrBadConfig = errors.New("core: invalid engine configuration")

// New builds an engine for the given configuration.
func New(cfg Config) (*Engine, error) {
	if cfg.Target.N() == 0 {
		return nil, ErrNoTarget
	}
	if cfg.Mixers < 0 {
		return nil, fmt.Errorf("%w: negative mixer count %d", ErrBadConfig, cfg.Mixers)
	}
	if cfg.Storage < 0 {
		return nil, fmt.Errorf("%w: negative storage count %d", ErrBadConfig, cfg.Storage)
	}
	if cfg.RecoveryBudget < 0 {
		return nil, fmt.Errorf("%w: negative recovery budget %d", ErrBadConfig, cfg.RecoveryBudget)
	}
	// Base graphs are pure in (algorithm, target) and immutable, so they
	// are memoised process-wide (see basecache.go): a stateless server
	// constructing an Engine per request builds one only on the first
	// request for a target.
	base, err := cachedBase(cfg.Algorithm, cfg.Target)
	if err != nil {
		return nil, err
	}
	mixers := cfg.Mixers
	if mixers == 0 {
		// The paper schedules every scheme with Mlb of the MM tree.
		mixers, err = PaperMixers(cfg.Target)
		if err != nil {
			return nil, err
		}
	}
	if mixers < 1 {
		return nil, sched.ErrNoMixers
	}
	e := &Engine{cfg: cfg, base: base, mixers: mixers}
	if cfg.PersistPool {
		e.persist = new(persistent)
		e.persist.pool.Reset(base)
	}
	if cfg.ErrorPolicy != nil {
		if err := cfg.ErrorPolicy.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		if cfg.PersistPool {
			return nil, fmt.Errorf("%w: error-aware selection cannot re-bind a persistent pool's base graph", ErrBadConfig)
		}
		for _, alg := range Algorithms() {
			g, err := cachedBase(alg, cfg.Target)
			if err != nil {
				return nil, err
			}
			e.candidates = append(e.candidates, g)
		}
	}
	return e, nil
}

// Base returns the engine's base mixing graph.
func (e *Engine) Base() *mixgraph.Graph { return e.base }

// Mixers returns the resolved on-chip mixer count.
func (e *Engine) Mixers() int { return e.mixers }

// Emitted returns the number of target droplets planned so far.
func (e *Engine) Emitted() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.emitted
}

// Elapsed returns the engine cycles consumed by the plans so far.
func (e *Engine) Elapsed() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.elapsed
}

// Batches returns a snapshot of the plans produced by previous Requests.
func (e *Engine) Batches() []*Batch {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*Batch(nil), e.batches...)
}

// Request plans the emission of n further target droplets and appends the
// batch to the engine timeline. It is RequestCtx with a background context.
func (e *Engine) Request(n int) (*Batch, error) {
	return e.RequestCtx(context.Background(), n)
}

// RequestCtx plans the emission of n further target droplets under ctx and
// appends the batch to the engine timeline. A canceled or expired context
// abandons the plan (error wrapping cancel.ErrCanceled) without mutating the
// timeline. Concurrent Requests serialize on the engine's mutex; each holds
// it for the whole plan so the timeline order equals the request order.
func (e *Engine) RequestCtx(ctx context.Context, n int) (*Batch, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: %w: %d", forest.ErrBadDemand, n)
	}
	obs.Inc("core.requests")
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cfg.PersistPool {
		return e.requestPersistent(n)
	}
	res, err := stream.RunCtx(ctx, stream.Config{
		Base:           e.base,
		Mixers:         e.mixers,
		Storage:        e.cfg.Storage,
		Scheduler:      e.cfg.Scheduler,
		RecoveryBudget: e.cfg.RecoveryBudget,
		Cache:          e.cfg.PlanCache,
		ErrorPolicy:    e.cfg.ErrorPolicy,
		Candidates:     e.candidates,
	}, n)
	if err != nil {
		return nil, err
	}
	b := &Batch{Request: n, Result: res, StartCycle: e.elapsed + 1}
	e.batches = append(e.batches, b)
	e.elapsed += res.TotalCycles
	e.emitted += res.Emitted
	if obs.Tracing() {
		obs.Emit("core.request", map[string]any{
			"n":           n,
			"batch":       len(e.batches),
			"start_cycle": b.StartCycle,
			"emitted":     res.Emitted,
			"cycles":      res.TotalCycles,
		})
	}
	return b, nil
}

// passConfig is the stream configuration of one pristine pass on the
// engine: its base graph, mixers, scheduler and plan cache.
func (e *Engine) passConfig() stream.Config {
	return stream.Config{Base: e.base, Mixers: e.mixers, Scheduler: e.cfg.Scheduler, Cache: e.cfg.PlanCache}
}

// PlanKey is the plan-cache key of the engine's pristine single-pass plan
// for d droplets (see stream.PlanKey).
func (e *Engine) PlanKey(d int) plancache.Key {
	return stream.PlanKey(e.passConfig(), d, plancache.PristinePolicy)
}

// PassPlan returns the engine's pristine single-pass plan for d droplets,
// the plan cached under PlanKey(d), without touching the timeline.
func (e *Engine) PassPlan(ctx context.Context, d int) (*plancache.Plan, error) {
	return stream.Plan(ctx, e.passConfig(), d, plancache.PristinePolicy)
}

// ExecuteBatch executes a planned batch cycle-by-cycle on the chip layout
// under fault injection, closing the loop with checkpoint sensors and the
// three-level recovery policy of internal/runtime. A nil injector runs the
// zero-fault path, whose move log is byte-identical to the exec plan. The
// per-pass recovery budget comes from the policy, falling back to the
// engine's Config.RecoveryBudget.
//
// Persistent-pool engines are not executable this way: their batches are
// scheduled as increments of one shared growing forest, which the
// cyberphysical replay cannot isolate.
func (e *Engine) ExecuteBatch(b *Batch, l *chip.Layout, inj *faults.Injector, pol runtime.Policy) (*runtime.Report, error) {
	return e.ExecuteBatchCtx(context.Background(), b, l, inj, pol)
}

// ExecuteBatchCtx is the context-aware form of ExecuteBatch: the
// cyberphysical replay checks ctx at every cycle boundary and a canceled run
// returns its partial report with an error wrapping cancel.ErrCanceled.
// Execution reads only immutable engine configuration and the caller's
// batch, so it runs outside the engine mutex: a long chip-level run never
// blocks concurrent planning Requests.
func (e *Engine) ExecuteBatchCtx(ctx context.Context, b *Batch, l *chip.Layout, inj *faults.Injector, pol runtime.Policy) (*runtime.Report, error) {
	if e.cfg.PersistPool {
		return nil, fmt.Errorf("%w: persistent-pool batches cannot be executed cyberphysically", ErrBadConfig)
	}
	if b == nil || b.Result == nil {
		return nil, fmt.Errorf("%w: nil batch", ErrBadConfig)
	}
	return runtime.RunStreamCtx(ctx, b.Result, l, inj, pol)
}

// PrewarmLayout eagerly builds and caches the dense transport-cost matrix of
// a layout (route.MatrixFor), so the first Execute/ExecuteBatch on that
// geometry pays no all-pairs flood at request time. Repeated calls on the
// same geometry are cache hits; safe for concurrent use. Engine servers call
// it once per floorplan at startup.
func PrewarmLayout(l *chip.Layout) error {
	_, err := route.MatrixFor(l)
	return err
}

// Emissions returns all emission events planned so far, on the engine's
// absolute timeline.
func (e *Engine) Emissions() []stream.Emission {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []stream.Emission
	for _, b := range e.batches {
		for _, em := range b.Result.Emissions() {
			out = append(out, stream.Emission{Cycle: b.StartCycle - 1 + em.Cycle, Count: em.Count})
		}
	}
	return out
}

// BaselineResult captures the repeated-pass baseline engine (RMM, RRMA,
// RMTCS): the base tree is scheduled once by OMS and re-run ⌈D/2⌉ times.
type BaselineResult struct {
	// Algorithm is the base mixing algorithm being repeated.
	Algorithm Algorithm
	// Passes is ⌈D/2⌉.
	Passes int
	// PassCycles is tc, the OMS makespan of one pass.
	PassCycles int
	// Cycles is Tr = Passes * tc.
	Cycles int
	// Inputs is Ir, Waste is Wr (Passes times the per-pass figures).
	Inputs int64
	Waste  int64
	// Storage is the measured per-pass storage units; StorageFormula is the
	// paper's closed-form estimate d - (floor(log2 Mc) + 1).
	Storage        int
	StorageFormula int
	// Schedule is the per-pass OMS schedule.
	Schedule *sched.Schedule
}

// Baseline plans the repeated-baseline engine for the target using the given
// algorithm, mixer count and demand.
func Baseline(alg Algorithm, target ratio.Ratio, mixers, demand int) (*BaselineResult, error) {
	if demand <= 0 {
		return nil, fmt.Errorf("core: demand must be positive, got %d", demand)
	}
	base, err := alg.Build(target)
	if err != nil {
		return nil, err
	}
	s, err := sched.OMS(base, mixers)
	if err != nil {
		return nil, err
	}
	st := base.Stats()
	passes := (demand + 1) / 2
	return &BaselineResult{
		Algorithm:      alg,
		Passes:         passes,
		PassCycles:     s.Cycles,
		Cycles:         passes * s.Cycles,
		Inputs:         int64(passes) * st.InputTotal,
		Waste:          int64(passes) * st.Waste,
		Storage:        sched.StorageUnits(s),
		StorageFormula: sched.BaselineStorage(int(base.Root.Level), mixers),
		Schedule:       s,
	}, nil
}
