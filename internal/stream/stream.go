// Package stream implements the storage-constrained droplet-streaming engine
// of Roy et al. (DAC 2014) §6: when the chip offers only q' on-chip storage
// units, a demand D may not be satisfiable in one mixing-forest pass. The
// engine finds D', the largest single-pass demand whose schedule stays
// within q' storage units, and repeats passes (⌈D/D'⌉ of them, the last one
// possibly smaller) until the demand is met — the procedure behind Table 4.
package stream

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/audit"
	"repro/internal/cancel"
	"repro/internal/errormodel"
	"repro/internal/forest"
	"repro/internal/mixgraph"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/sched"
)

// Scheduler selects the forest scheduling scheme.
type Scheduler int

const (
	// MMS is M_Mixers_Schedule (Algorithm 1), the latency-oriented scheme.
	MMS Scheduler = iota
	// SRS is Storage_Reduced_Scheduling (Algorithm 2), the storage-frugal
	// scheme the paper pairs with multi-pass streaming.
	SRS
)

// String returns the paper's name for the scheduler.
func (s Scheduler) String() string {
	switch s {
	case MMS:
		return "MMS"
	case SRS:
		return "SRS"
	default:
		return fmt.Sprintf("Scheduler(%d)", int(s))
	}
}

// ErrUnknownScheduler reports a Scheduler value or name that names no scheme.
var ErrUnknownScheduler = errors.New("stream: unknown scheduler")

// ParseScheduler resolves the paper's scheduler names.
func ParseScheduler(s string) (Scheduler, error) {
	switch s {
	case "MMS", "mms":
		return MMS, nil
	case "SRS", "srs":
		return SRS, nil
	default:
		return 0, fmt.Errorf("%w %q (want MMS or SRS)", ErrUnknownScheduler, s)
	}
}

// Schedule runs the selected scheme.
func (s Scheduler) Schedule(f *forest.Forest, mc int) (*sched.Schedule, error) {
	switch s {
	case MMS:
		return sched.MMS(f, mc)
	case SRS:
		return sched.SRS(f, mc)
	default:
		return nil, fmt.Errorf("%w %d", ErrUnknownScheduler, int(s))
	}
}

// Config describes the chip resources available to the engine.
type Config struct {
	// Base is the base mixing graph (MM, RMA or MTCS) of the target.
	Base *mixgraph.Graph
	// Mixers is the number of on-chip mixers Mc.
	Mixers int
	// Storage is the number of on-chip storage units q'. Zero or negative
	// means unlimited (single-pass operation).
	Storage int
	// Scheduler is the forest scheduling scheme (default MMS).
	Scheduler Scheduler
	// RecoveryBudget bounds the extra cycles the cyberphysical runtime
	// (internal/runtime) may spend recovering from injected faults in any
	// single pass of this plan; 0 means unbounded. Planning itself ignores
	// it — the budget rides on Result.Config for the executor.
	RecoveryBudget int
	// Cache memoises the plans and demand scans of this config; nil plans
	// uncached. Processes hosting several logical nodes — the multi-node
	// benchserve scenario, cluster tests — give each node its own cache so
	// per-node hit rates, scans and the fleet-wide build count stay honest.
	Cache *plancache.Cache
	// ErrorPolicy, when set, makes planning error-aware (errselect.go): the
	// engine plans Base and every graph in Candidates, bounds each plan's
	// emitted CF error analytically under the policy's noise parameters,
	// and returns the plan with the lowest expected error among those
	// within the policy's cycle budget. Result.Selection records the
	// choice. Nil plans error-blind, exactly as before.
	ErrorPolicy *errormodel.Policy
	// Candidates are the alternative base graphs of the same target an
	// error-aware run may select instead of Base. Ignored without
	// ErrorPolicy.
	Candidates []*mixgraph.Graph
}

// Pass is one mixing-forest execution.
type Pass struct {
	// Demand is the number of target droplets this pass emits.
	Demand int
	// Plan is the pass's forest and mixer/time assignment. Every full-size
	// pass of a Result shares one Plan. Its summary fields and EmitCycles
	// serve planning answers; Plan.Schedule and Plan.Forest materialize
	// the pointer forms for the callers that execute or render a pass.
	Plan *plancache.Plan
	// Storage is the number of storage units the pass occupies at its peak.
	Storage int
	// Waste and Inputs are the pass's droplet costs.
	Waste  int64
	Inputs int64
	// StartCycle is the absolute cycle the pass begins at (1-based); the
	// pass occupies StartCycle .. StartCycle+Plan.Cycles-1.
	StartCycle int
}

// Result is the full multi-pass plan for one demand.
type Result struct {
	// Config echoes the engine configuration.
	Config Config
	// Demand is the requested number of droplets D.
	Demand int
	// PerPassDemand is D', the single-pass demand cap the storage limit
	// allows, chosen so the final, shorter pass fits as well. It equals
	// Demand when storage is unlimited. Under a storage budget it is the
	// largest fitting even demand up to Demand (the scan visits even
	// demands only), so an odd Demand always takes at least two passes,
	// even when one pass of Demand would fit (ROADMAP item 12).
	PerPassDemand int
	// Passes are the planned passes in execution order.
	Passes []Pass
	// TotalCycles, TotalWaste and TotalInputs aggregate over the passes
	// (the quantities reported in Table 4).
	TotalCycles int
	TotalWaste  int64
	TotalInputs int64
	// Emitted is the number of target droplets actually produced; it is
	// Demand rounded up to even per pass, so Emitted >= Demand.
	Emitted int
	// Selection records the error-aware base-graph choice (nil for
	// error-blind plans).
	Selection *Selection
}

// ErrStorage reports that even a minimal two-droplet pass exceeds the
// available storage units.
var ErrStorage = errors.New("stream: base tree needs more storage units than available")

// PlanKey is the plan-cache key, and so the artifact identity, of cfg's
// single-pass plan for demand d under policy.
func PlanKey(cfg Config, d int, policy string) plancache.Key {
	return plancache.KeyFor(cfg.Base, d, cfg.Mixers, cfg.Scheduler.String(), policy)
}

// Plan returns the complete single-pass plan for demand d (forest, schedule,
// stats, peak storage; see plancache.Plan) from cfg's plan cache under
// PlanKey, policy being plancache.PristinePolicy on a pristine chip. Plans are pure functions of
// their key; misses build with BuildPlan (kernel.go).
func Plan(ctx context.Context, cfg Config, d int, policy string) (*plancache.Plan, error) {
	return cfg.Cache.GetOrBuildCtx(ctx, PlanKey(cfg, d, policy), func() (*plancache.Plan, error) {
		return BuildPlan(cfg, d)
	})
}

// MaxSinglePassDemand returns D', the largest demand not exceeding limit
// whose one-pass schedule fits in the configured storage, or 0 if even a
// demand of 2 does not fit. Storage use is not monotone in demand, so the
// scan inspects every even demand up to limit and keeps the largest fit.
// It is MaxSinglePassDemandCtx with a background context.
func MaxSinglePassDemand(cfg Config, limit int) (int, error) {
	return MaxSinglePassDemandCtx(context.Background(), cfg, limit)
}

// PurgeScanMemo empties the demand scans memoised on plancache.Default().
// Scans are pure functions of immutable graphs, so purging is never required
// for correctness; cold-path benchmarks use it to force recomputation.
func PurgeScanMemo() { plancache.Default().PurgeScans() }

// MaxSinglePassDemandCtx is the context-aware scan behind
// MaxSinglePassDemand. With unlimited storage (cfg.Storage <= 0, which Run
// plans as one pass) every demand fits, so it returns limit without
// scheduling anything. The scan is the dominant cost of a storage-limited
// plan request, so repeated scans are served from cfg.Cache's scan table (a
// warm lookup allocates nothing); misses, and every scan of an uncached
// config, run the incremental packed scan (demandScan). Cancellation is
// checked at every candidate-demand boundary of a live scan; an abandoned
// scan returns an error wrapping cancel.ErrCanceled and caches nothing.
func MaxSinglePassDemandCtx(ctx context.Context, cfg Config, limit int) (int, error) {
	if limit < 2 {
		limit = 2
	}
	if cfg.Storage <= 0 {
		return limit, nil
	}
	sk := plancache.ScanKey{
		Graph:     cfg.Base.Fingerprint(),
		Ratio:     cfg.Base.Target.String(),
		Mixers:    cfg.Mixers,
		Storage:   cfg.Storage,
		Limit:     limit,
		Scheduler: cfg.Scheduler.String(),
	}
	return cfg.Cache.Scan(sk, func() (int, error) { return demandScan(ctx, cfg, limit) })
}

// demandScan is the memo-miss path of MaxSinglePassDemandCtx.
//
// The scan grows ONE incremental packed forest across all candidate demands
// — appending one component tree per step reproduces forest.Build's
// structure exactly (Build is itself a loop of AddTree calls) — instead of
// rebuilding the forest from scratch for every even demand, turning the
// forest-construction cost of the scan from O(D²) tasks into O(D). Cached
// plans short-circuit the per-candidate scheduling as well. The whole scan
// runs on one pooled planKernel: the growing forest lives in its arenas and
// every candidate schedule in its scratch, so a warm scan allocates nothing
// per candidate and no schedule is ever cached (it would alias the live,
// still-growing forest).
//
// Each candidate is scheduled under a budget of q' storage units and cut
// short at its first cycle over budget: that cycle's occupancy is final, so
// it already proves the candidate's peak storage exceeds q'. The cut ends
// only that candidate. The scan still visits every even demand up to limit,
// because storage is not monotone in demand (TestStorageNotMonotoneInDemand):
// a larger demand can fit after a smaller one overflowed.
func demandScan(ctx context.Context, cfg Config, limit int) (int, error) {
	k := kernelPool.Get().(*planKernel)
	defer kernelPool.Put(k)
	k.builder.Reset(cfg.Base)
	best := 0
	for d := 2; d <= limit; d += 2 {
		if err := cancel.Check(ctx); err != nil {
			return 0, fmt.Errorf("stream: demand scan at D=%d: %w", d, err)
		}
		k.builder.AddTree()
		if p, ok := cfg.Cache.Get(PlanKey(cfg, d, plancache.PristinePolicy)); ok {
			if p.Storage <= cfg.Storage {
				best = d
			}
			continue
		}
		fits, err := k.schedulePacked(cfg.Scheduler, k.builder.Forest(), cfg.Mixers, cfg.Storage)
		if err != nil {
			return 0, err
		}
		if fits {
			best = d
		}
	}
	return best, nil
}

// Run plans the emission of `demand` target droplets under the configured
// resource constraints. It is RunCtx with a background context.
func Run(cfg Config, demand int) (*Result, error) {
	return RunCtx(context.Background(), cfg, demand)
}

// RunCtx plans the emission of `demand` target droplets under the configured
// resource constraints, honouring ctx: cancellation is checked at every pass
// boundary (and inside the storage scan), and an abandoned plan returns an
// error wrapping cancel.ErrCanceled. The repeated full-size pass is planned
// once and reused for all ⌈D/D'⌉ occurrences (every full pass is the same
// forest and schedule — only StartCycle differs); only a final short pass,
// when the demand is not a multiple of D', is planned separately, and D' is
// lowered until that pass fits in the storage budget too. With
// Config.ErrorPolicy set the plan is additionally selected across the
// candidate base graphs by predicted CF error (errselect.go).
func RunCtx(ctx context.Context, cfg Config, demand int) (*Result, error) {
	if cfg.ErrorPolicy != nil {
		return runErrorAware(ctx, cfg, demand)
	}
	return runPlain(ctx, cfg, demand)
}

// runPlain is the error-blind planning path shared by direct requests and
// every candidate of an error-aware selection.
func runPlain(ctx context.Context, cfg Config, demand int) (*Result, error) {
	if demand <= 0 {
		return nil, fmt.Errorf("stream: %w: %d", forest.ErrBadDemand, demand)
	}
	if cfg.Mixers < 1 {
		return nil, sched.ErrNoMixers
	}
	perPass := demand
	// full is the reused full-size pass plan; short the final, shorter
	// pass's, which perPassDemand has planned already when there is one.
	var full, short *plancache.Plan
	if cfg.Storage > 0 {
		var err error
		if perPass, short, err = perPassDemand(ctx, cfg, demand); err != nil {
			return nil, err
		}
	}

	res := &Result{Config: cfg, Demand: demand, PerPassDemand: perPass}
	start := 1
	for remaining := demand; remaining > 0; {
		if err := cancel.Check(ctx); err != nil {
			return nil, fmt.Errorf("stream: pass starting at cycle %d: %w", start, err)
		}
		d := perPass
		if remaining < d {
			d = remaining
		}
		var p *plancache.Plan
		var err error
		if d == perPass {
			if full == nil {
				full, err = Plan(ctx, cfg, d, plancache.PristinePolicy)
			}
			p = full
		} else {
			if short == nil {
				short, err = Plan(ctx, cfg, d, plancache.PristinePolicy)
			}
			p = short
		}
		if err != nil {
			return nil, err
		}
		st := p.Stats
		res.Passes = append(res.Passes, Pass{
			Demand:     st.Targets,
			Plan:       p,
			Storage:    p.Storage,
			Waste:      st.Waste,
			Inputs:     st.InputTotal,
			StartCycle: start,
		})
		res.TotalCycles += p.Cycles
		res.TotalWaste += st.Waste
		res.TotalInputs += st.InputTotal
		res.Emitted += st.Targets
		start += p.Cycles
		remaining -= st.Targets
	}
	// Cross-check the assembled multi-pass plan against the paper's closed
	// forms (pass count, per-pass emissions, start-cycle tiling, aggregate
	// totals) before handing it to any executor.
	if rep := audit.CheckStreamCounts(auditCounts(res)); !rep.Clean() {
		obs.Add("audit.violations", int64(len(rep.Violations)))
		return nil, fmt.Errorf("stream: plan audit: %w", rep.Err())
	}
	obsRun(res)
	return res, nil
}

// perPassDemand resolves D' for a storage-limited plan of demand droplets:
// the largest demand whose pass fits in q' and whose final, shorter pass of
// demand mod D' targets fits too. Storage use is not monotone in demand, so
// the short pass can need more units than a full one; D' then drops to the
// next fitting demand below it until the short pass fits as well. It also
// returns the short pass's plan (nil when D' divides the demand).
func perPassDemand(ctx context.Context, cfg Config, demand int) (int, *plancache.Plan, error) {
	for limit := demand; ; {
		dmax, err := MaxSinglePassDemandCtx(ctx, cfg, limit)
		if err != nil {
			return 0, nil, err
		}
		if dmax == 0 {
			return 0, nil, fmt.Errorf("%w (q'=%d)", ErrStorage, cfg.Storage)
		}
		short := demand % dmax
		if short == 0 {
			return dmax, nil, nil
		}
		p, err := Plan(ctx, cfg, short, plancache.PristinePolicy)
		if err != nil {
			return 0, nil, err
		}
		if p.Storage <= cfg.Storage {
			return dmax, p, nil
		}
		if dmax <= 2 {
			return 0, nil, fmt.Errorf("%w (q'=%d, final pass of %d)", ErrStorage, cfg.Storage, short)
		}
		limit = dmax - 2
	}
}

// auditCounts projects a Result onto the audit package's count view.
func auditCounts(r *Result) audit.StreamCounts {
	c := audit.StreamCounts{
		Demand:        r.Demand,
		PerPassDemand: r.PerPassDemand,
		Storage:       r.Config.Storage,
		Emitted:       r.Emitted,
		TotalCycles:   r.TotalCycles,
		TotalWaste:    r.TotalWaste,
		TotalInputs:   r.TotalInputs,
	}
	for _, p := range r.Passes {
		c.Passes = append(c.Passes, audit.PassCounts{
			Emits:      p.Demand,
			Cycles:     p.Plan.Cycles,
			Waste:      p.Waste,
			Inputs:     p.Inputs,
			StartCycle: p.StartCycle,
			Storage:    p.Storage,
		})
	}
	return c
}

// obsRun exports the plan's headline metrics and, when tracing, one
// stream.plan event.
func obsRun(res *Result) {
	if !obs.Enabled() {
		return
	}
	obs.Inc("stream.runs")
	obs.Observe("stream.passes", float64(len(res.Passes)))
	obs.Observe("stream.total_cycles", float64(res.TotalCycles))
	obs.Emit("stream.plan", map[string]any{
		"demand":       res.Demand,
		"per_pass":     res.PerPassDemand,
		"passes":       len(res.Passes),
		"emitted":      res.Emitted,
		"total_cycles": res.TotalCycles,
		"total_waste":  res.TotalWaste,
		"total_inputs": res.TotalInputs,
		"scheduler":    res.Config.Scheduler.String(),
	})
}

// Emissions lists (absolute cycle, droplet count) events across all passes,
// in time order: every component-tree root emits two target droplets in the
// cycle it executes. A pass reports the roots of its own schedule's window
// (plancache.Plan.EmitCycles), so a persistent-pool batch keeps its
// emissions however far later batches grow the forest.
func (r *Result) Emissions() []Emission {
	var out []Emission
	for _, p := range r.Passes {
		p.Plan.EmitCycles(func(cycle, count int) {
			out = append(out, Emission{Cycle: p.StartCycle + cycle - 1, Count: count})
		})
	}
	// Passes never overlap, so one sort brings every cycle's roots
	// together; merge them into one event per cycle.
	slices.SortFunc(out, func(a, b Emission) int { return cmp.Compare(a.Cycle, b.Cycle) })
	merged := out[:0]
	for _, e := range out {
		if n := len(merged); n > 0 && merged[n-1].Cycle == e.Cycle {
			merged[n-1].Count += e.Count
			continue
		}
		merged = append(merged, e)
	}
	return merged
}

// FirstEmission returns the absolute cycle the first target droplets leave
// the chip — the stream's responsiveness (time to first droplet). The
// mixing forest emits its first pair after d cycles regardless of the total
// demand, where the repeated baseline would also take d but then starves
// between passes.
func (r *Result) FirstEmission() int {
	first := 0
	for _, p := range r.Passes {
		p.Plan.EmitCycles(func(cycle, _ int) {
			if c := p.StartCycle + cycle - 1; first == 0 || c < first {
				first = c
			}
		})
	}
	return first
}

// Emission is a droplet-output event.
type Emission struct {
	// Cycle is the absolute time-cycle of the emission.
	Cycle int
	// Count is the number of target droplets emitted in that cycle.
	Count int
}
