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
	"sync"

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
	// engine scores Base and every graph in Candidates by total cycles and
	// by an analytic bound on the emitted CF error under the policy's
	// noise parameters, and plans the candidate with the lowest expected
	// error among those within the policy's cycle budget.
	// Result.Selection records the choice. Nil plans error-blind.
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

// MaxSinglePassDemand returns D', the largest even demand not exceeding
// limit whose one-pass schedule fits in the configured storage, or 0 if
// even a demand of 2 does not fit. Storage use is not monotone in demand,
// so the scan tries every even demand from limit down until one fits.
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
	return cfg.Cache.Scan(scanKey(cfg, limit), func() (int, error) { return demandScan(ctx, cfg, limit) })
}

// scanKey is the plan cache's key for cfg's base graph and resources with
// limit as the key's limit: the D′ scan up to limit, or the total cycles
// of a demand of limit.
func scanKey(cfg Config, limit int) plancache.ScanKey {
	return plancache.ScanKey{
		Graph:     cfg.Base.Fingerprint(),
		Ratio:     cfg.Base.Target.String(),
		Mixers:    cfg.Mixers,
		Storage:   cfg.Storage,
		Limit:     limit,
		Scheduler: cfg.Scheduler.String(),
	}
}

// demandScan is the memo-miss path of MaxSinglePassDemandCtx.
//
// The scan grows ONE packed forest to limit, then schedules its prefixes
// top-down: the first d/2 trees for d = limit, limit-2, ..., 2, returning
// the first d that fits. Trees are grown in order and tasks are
// write-once, so each prefix is exactly the forest of demand d, and the
// kernel derives the forest's links once (sched.Kernel.Prefixes) and
// schedules each prefix without the consumers past its end. Storage is not monotone in demand
// (TestStorageNotMonotoneInDemand), so a smaller demand can fit after a
// larger one overflowed and the scan cannot bisect; but the first fit
// from the top is the largest fitting even d, D′ itself, so no demand
// below it is scheduled. It never consults the plan cache: a cached
// plan's Storage is the kernel's peak for the same forest, so a hit would
// decide nothing the kernel does not, and on a cold cache nearly every
// candidate would miss. The whole scan runs on one pooled planKernel: the
// forest lives in its arenas and every candidate schedule in its scratch,
// so a warm scan allocates nothing per candidate and no schedule is ever
// cached.
//
// Each candidate is scheduled under a budget of q' storage units and cut
// short at its first cycle over budget: that cycle's occupancy is final,
// so it already proves the candidate's peak storage exceeds q'.
func demandScan(ctx context.Context, cfg Config, limit int) (int, error) {
	k := kernelPool.Get().(*planKernel)
	defer kernelPool.Put(k)
	k.builder.Reset(cfg.Base)
	for t := range limit / 2 {
		if err := cancel.Check(ctx); err != nil {
			return 0, fmt.Errorf("stream: demand scan growing tree %d: %w", t+1, err)
		}
		k.builder.AddTree()
	}
	if err := k.sched.Prefixes(k.builder.Forest()); err != nil {
		return 0, err
	}
	for d := limit &^ 1; d >= 2; d -= 2 {
		if err := cancel.Check(ctx); err != nil {
			return 0, fmt.Errorf("stream: demand scan at D=%d: %w", d, err)
		}
		fits, err := k.schedulePrefix(cfg.Scheduler, d/2, cfg.Mixers, cfg.Storage)
		if err != nil {
			return 0, err
		}
		if fits {
			return d, nil
		}
	}
	return 0, nil
}

// Run plans the emission of `demand` target droplets under the configured
// resource constraints. It is RunCtx with a background context.
func Run(cfg Config, demand int) (*Result, error) {
	return RunCtx(context.Background(), cfg, demand)
}

// RunCtx plans the emission of `demand` target droplets under the configured
// resource constraints, honouring ctx: cancellation is checked before every
// distinct pass is planned (and inside the storage scan), and an abandoned
// plan returns an error wrapping cancel.ErrCanceled. The repeated full-size
// pass is planned once and reused for all ⌈D/D'⌉ occurrences (every full
// pass is the same forest and schedule — only StartCycle differs); only a
// final short pass, when the demand is not a multiple of D', is planned
// separately, and D' is lowered until that pass fits in the storage budget
// too (passLayout). With Config.ErrorPolicy set the plan is additionally
// selected across the candidate base graphs by predicted CF error
// (errselect.go).
func RunCtx(ctx context.Context, cfg Config, demand int) (*Result, error) {
	if cfg.ErrorPolicy != nil {
		return runErrorAware(ctx, cfg, demand)
	}
	return runPlain(ctx, cfg, demand)
}

// runPlain is the error-blind planning path shared by direct requests and
// the winner of an error-aware selection: it lays the demand out in passes,
// planning each distinct pass through cfg's cache.
func runPlain(ctx context.Context, cfg Config, demand int) (*Result, error) {
	l, err := passLayout(ctx, cfg, demand, func(d int) (passCost, error) {
		p, err := Plan(ctx, cfg, d, plancache.PristinePolicy)
		if err != nil {
			return passCost{}, err
		}
		return passCost{cycles: p.Cycles, storage: p.Storage, plan: p}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Config: cfg, Demand: demand, PerPassDemand: l.perPass}
	for range l.fulls {
		if err := res.addPass(ctx, l.full.plan); err != nil {
			return nil, err
		}
	}
	if l.shortD > 0 {
		if err := res.addPass(ctx, l.short.plan); err != nil {
			return nil, err
		}
	}
	// Cross-check the assembled multi-pass plan against the paper's closed
	// forms (pass count, per-pass emissions, start-cycle tiling, aggregate
	// totals) before handing it to any executor.
	if err := auditStream(res); err != nil {
		return nil, err
	}
	obsRun(res)
	return res, nil
}

// passCountsPool recycles auditStream's per-pass buffers, so a clean audit
// allocates nothing however many passes the stream runs.
var passCountsPool = sync.Pool{New: func() any { return new([]audit.PassCounts) }}

// auditStream checks res against the paper's closed forms with
// audit.CheckStreamCounts.
func auditStream(res *Result) error {
	buf := passCountsPool.Get().(*[]audit.PassCounts)
	c := auditCounts(res, (*buf)[:0])
	rep := audit.CheckStreamCounts(c)
	*buf = c.Passes
	passCountsPool.Put(buf)
	if !rep.Clean() {
		obs.Add("audit.violations", int64(len(rep.Violations)))
		return fmt.Errorf("stream: plan audit: %w", rep.Err())
	}
	return nil
}

// addPass appends a pass running plan p to the end of the result's
// timeline, unless ctx is done.
func (r *Result) addPass(ctx context.Context, p *plancache.Plan) error {
	if err := checkPass(ctx, r.TotalCycles+1); err != nil {
		return err
	}
	st := p.Stats
	r.Passes = append(r.Passes, Pass{
		Demand:     st.Targets,
		Plan:       p,
		Storage:    p.Storage,
		Waste:      st.Waste,
		Inputs:     st.InputTotal,
		StartCycle: r.TotalCycles + 1,
	})
	r.TotalCycles += p.Cycles
	r.TotalWaste += st.Waste
	r.TotalInputs += st.InputTotal
	r.Emitted += st.Targets
	return nil
}

// checkPass is the cancellation check made before the pass starting at
// cycle start is planned or appended.
func checkPass(ctx context.Context, start int) error {
	if err := cancel.Check(ctx); err != nil {
		return fmt.Errorf("stream: pass starting at cycle %d: %w", start, err)
	}
	return nil
}

// passCost is what a pass layout reads of one pass: its cycles and peak
// storage and, when the pass was planned rather than counted, its plan.
type passCost struct {
	cycles, storage int
	plan            *plancache.Plan
}

// layout is the pass layout of one demand: fulls passes of perPass
// droplets (D'), then, when shortD > 0, one final pass of shortD droplets.
// Every pass of perPass droplets emits exactly perPass: D' is even under a
// storage budget, and without one the single pass is the whole demand.
type layout struct {
	perPass, fulls, shortD int
	full, short            passCost
}

// cycles is the layout's total schedule length.
func (l *layout) cycles() int { return l.fulls*l.full.cycles + l.short.cycles }

// passLayout lays demand droplets out in passes under cfg, measuring each
// distinct pass once with measure, the final short pass first. It is the
// one layout walk behind both planning a demand (runPlain measures a pass
// by planning it) and scoring one (totalCycles counts it on the kernel).
// With unlimited storage the layout is one pass of the whole demand. Under
// a budget of q' units, D' is the largest demand whose pass fits in q'
// and whose final, shorter pass of demand mod D' fits too. Storage use is
// not monotone in demand, so the short pass can need more units than a
// full one; D' then drops to the next fitting demand below it until the
// short pass fits as well. Cancellation is checked in the D′ scan and
// before the full passes, which start at cycle 1, are measured.
func passLayout(ctx context.Context, cfg Config, demand int, measure func(d int) (passCost, error)) (layout, error) {
	if demand <= 0 {
		return layout{}, fmt.Errorf("stream: %w: %d", forest.ErrBadDemand, demand)
	}
	if cfg.Mixers < 1 {
		return layout{}, sched.ErrNoMixers
	}
	l := layout{perPass: demand}
	for limit := demand; cfg.Storage > 0; limit = l.perPass - 2 {
		dmax, err := MaxSinglePassDemandCtx(ctx, cfg, limit)
		if err != nil {
			return layout{}, err
		}
		if dmax == 0 {
			return layout{}, fmt.Errorf("%w (q'=%d)", ErrStorage, cfg.Storage)
		}
		l.perPass, l.shortD, l.short = dmax, demand%dmax, passCost{}
		if l.shortD == 0 {
			break
		}
		if l.short, err = measure(l.shortD); err != nil {
			return layout{}, err
		}
		if l.short.storage <= cfg.Storage {
			break
		}
		if dmax <= 2 {
			return layout{}, fmt.Errorf("%w (q'=%d, final pass of %d)", ErrStorage, cfg.Storage, l.shortD)
		}
	}
	if l.fulls = demand / l.perPass; l.fulls > 0 {
		if err := checkPass(ctx, 1); err != nil {
			return layout{}, err
		}
		var err error
		if l.full, err = measure(l.perPass); err != nil {
			return layout{}, err
		}
	}
	return l, nil
}

// auditCounts projects a Result onto the audit package's count view, its
// passes appended to buf.
func auditCounts(r *Result, buf []audit.PassCounts) audit.StreamCounts {
	c := audit.StreamCounts{
		Demand:        r.Demand,
		PerPassDemand: r.PerPassDemand,
		Storage:       r.Config.Storage,
		Emitted:       r.Emitted,
		TotalCycles:   r.TotalCycles,
		TotalWaste:    r.TotalWaste,
		TotalInputs:   r.TotalInputs,
		Passes:        buf,
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
	if !obs.Tracing() {
		return
	}
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
