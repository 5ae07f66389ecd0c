// Package runtime is the cyberphysical layer of the droplet-streaming
// engine: it replays a planned mixing-forest schedule cycle-by-cycle against
// a deterministic fault injector (internal/faults) and closes the loop with
// checkpoint "sensors" — the volume/CF propagation of internal/errormodel —
// after every dispense, transport and (1:1) mix-split.
//
// On a detected error the recovery policy escalates through three bounded
// levels:
//
//  1. retry — re-dispense a failed dispense, re-split an unbalanced split,
//     re-deliver a lost droplet (from the parked-waste pool when a droplet
//     of the exact composition is available);
//  2. subtree replay — regenerate the minimal affected subtree of the
//     forest, re-seeding from parked waste droplets where possible;
//  3. graceful degradation — drop a dead mixer (or mixers cut off by stuck
//     electrodes) from the roster, reroute around stuck cells, and replan
//     the remaining work with MMS/SRS on the surviving Mc−1 mixers.
//
// The zero-fault path executes the exec plan verbatim: its move log is
// byte-identical to exec.Execute's, which the golden tests pin. Every run
// either completes with all emitted targets inside the sensor tolerance or
// returns a typed error wrapping ErrUnrecoverable — never a silent
// corrupted emission.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/audit"
	"repro/internal/cancel"
	"repro/internal/chip"
	"repro/internal/errormodel"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/forest"
	"repro/internal/mixgraph"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/ratio"
	"repro/internal/route"
	"repro/internal/sched"
	"repro/internal/stream"
)

// Run executes one planned schedule on the layout under fault injection.
// A nil injector runs the zero-fault path. The returned report is non-nil
// even when the run fails, so callers can inspect how far it got. It is
// RunCtx with a background context.
func Run(s *sched.Schedule, l *chip.Layout, inj *faults.Injector, pol Policy) (*Report, error) {
	return RunCtx(context.Background(), s, l, inj, pol)
}

// RunCtx is the context-aware form of Run. The executor checks ctx at every
// cycle boundary of the replay (and at every recovery replan chunk); an
// abandoned run returns the partial report together with an error wrapping
// cancel.ErrCanceled, so a server can bound request latency without leaking
// half-executed goroutines.
func RunCtx(ctx context.Context, s *sched.Schedule, l *chip.Layout, inj *faults.Injector, pol Policy) (*Report, error) {
	return runOne(ctx, s, l, inj, pol, 0, nil)
}

// RunStream executes every pass of a multi-pass stream plan in order, each
// under the per-pass recovery budget configured on the stream (or on the
// policy, which takes precedence). The aggregate report carries the
// per-pass reports in Passes. It is RunStreamCtx with a background context.
func RunStream(res *stream.Result, l *chip.Layout, inj *faults.Injector, pol Policy) (*Report, error) {
	return RunStreamCtx(context.Background(), res, l, inj, pol)
}

// RunStreamCtx is the context-aware form of RunStream: ctx is checked at
// every pass boundary and, inside each pass, at every cycle boundary.
func RunStreamCtx(ctx context.Context, res *stream.Result, l *chip.Layout, inj *faults.Injector, pol Policy) (*Report, error) {
	if pol.RecoveryBudget == 0 {
		pol.RecoveryBudget = res.Config.RecoveryBudget
	}
	agg := &Report{ByKind: map[faults.Kind]int{}}
	for _, pass := range res.Passes {
		if err := cancel.Check(ctx); err != nil {
			return agg, fmt.Errorf("runtime: pass starting at cycle %d: %w", pass.StartCycle, err)
		}
		r, err := runOne(ctx, pass.Plan.Schedule(), l, inj, pol, pass.StartCycle-1, res.Config.Cache)
		if r != nil {
			agg.Passes = append(agg.Passes, r)
			agg.absorb(r)
		}
		if err != nil {
			return agg, fmt.Errorf("runtime: pass starting at cycle %d: %w", pass.StartCycle, err)
		}
	}
	return agg, nil
}

func (r *Report) absorb(p *Report) {
	r.Injected += p.Injected
	r.Detected += p.Detected
	r.Recovered += p.Recovered
	r.Retries += p.Retries
	r.Replays += p.Replays
	r.Degradations += p.Degradations
	r.BaseCycles += p.BaseCycles
	r.TotalCycles += p.TotalCycles
	r.ExtraCycles += p.ExtraCycles
	r.BaseActuations += p.BaseActuations
	r.TotalActuations += p.TotalActuations
	r.ExtraActuations += p.ExtraActuations
	r.BaseDroplets += p.BaseDroplets
	r.TotalDroplets += p.TotalDroplets
	r.ExtraDroplets += p.ExtraDroplets
	r.Emitted += p.Emitted
	r.Targets = append(r.Targets, p.Targets...)
	r.Moves = append(r.Moves, p.Moves...)
	r.DeadMixers = append(r.DeadMixers, p.DeadMixers...)
	r.Events = append(r.Events, p.Events...)
	for k, n := range p.ByKind {
		r.ByKind[k] += n
	}
	if p.Audit != nil {
		if r.Audit == nil {
			r.Audit = &audit.Report{}
		}
		r.Audit.Merge(p.Audit)
	}
}

func runOne(ctx context.Context, s *sched.Schedule, l *chip.Layout, inj *faults.Injector, pol Policy, offset int, cache *plancache.Cache) (*Report, error) {
	pol = pol.withDefaults()
	basePlan, err := exec.Execute(s, l)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ByKind:         map[faults.Kind]int{},
		BaseCycles:     s.Cycles,
		BaseActuations: basePlan.TotalCost,
	}
	for _, m := range basePlan.Moves {
		if m.Purpose == exec.Dispense {
			rep.BaseDroplets++
		}
	}
	e := &executor{
		ctx:     ctx,
		cache:   cache,
		pol:     pol,
		inj:     inj,
		rep:     rep,
		origin:  l,
		dead:    map[string]bool{},
		pool:    map[string][]errormodel.Droplet{},
		nfluids: s.Forest.Target().N(),
		offset:  offset,
		led:     audit.NewLedger(s.Forest.Target().N()),
	}
	eventsBefore := inj.Count(faults.Kind(-1))

	layout, plan := l, basePlan
	if stuck := inj.Stuck(); len(stuck) > 0 {
		e.stuck = stuck
		layout = l.Degrade(nil, stuck)
		for _, p := range stuck {
			inj.RecordStuck(offset+1, p)
		}
		rep.Detected += len(stuck)
		plan, err = exec.Execute(s, layout)
	}
	if err != nil {
		// Stuck electrodes broke the binding: degrade from cycle 1.
		rep.Degradations++
		err = e.replan(schemeOf(s), s.Forest.Base, s.Forest.Demand, err)
	} else {
		err = e.exec(s, plan)
	}

	if all := inj.Log(); eventsBefore <= len(all) {
		rep.Events = all[eventsBefore:]
	}
	rep.Injected = len(rep.Events)
	for _, ev := range rep.Events {
		rep.ByKind[ev.Kind]++
	}
	rep.TotalCycles = e.cyclesDone + e.extraCycles
	rep.ExtraCycles = rep.TotalCycles - rep.BaseCycles
	rep.ExtraActuations = rep.TotalActuations - rep.BaseActuations
	rep.ExtraDroplets = rep.TotalDroplets - rep.BaseDroplets
	obsRun(rep)
	if err != nil {
		return rep, err
	}
	rep.Recovered = rep.Detected
	// The droplet-ledger audit runs on every completed execution: mass
	// conservation, lifecycle sanity and the strict emission envelope.
	// An undegraded run must emit exactly two droplets per component tree;
	// a degraded replan may legitimately overshoot the demand.
	exact := 2 * len(s.Forest.Trees)
	if rep.Degradations > 0 {
		exact = -1
	}
	rep.Audit = e.led.Close(s.Forest.Demand, exact)
	obs.Add("audit.checks", int64(rep.Audit.Checks))
	if !rep.Audit.Clean() {
		obs.Add("audit.violations", int64(len(rep.Audit.Violations)))
		return rep, fmt.Errorf("runtime: ledger audit failed: %w", rep.Audit.Err())
	}
	return rep, nil
}

// obsRun exports a completed (or failed) run's counters to the metrics
// registry; one atomic load each when observability is disabled.
func obsRun(rep *Report) {
	obs.Inc("runtime.runs")
	obs.Add("runtime.faults_injected", int64(rep.Injected))
	obs.Add("runtime.faults_detected", int64(rep.Detected))
	obs.Add("runtime.retries", int64(rep.Retries))
	obs.Add("runtime.replays", int64(rep.Replays))
	obs.Add("runtime.degradations", int64(rep.Degradations))
	obs.Observe("runtime.extra_cycles", float64(rep.ExtraCycles))
	obs.Observe("runtime.recovery_depth", float64(recoveryDepth(rep)))
	if obs.Enabled() {
		obs.Emit("runtime.run", map[string]any{
			"injected":     rep.Injected,
			"detected":     rep.Detected,
			"retries":      rep.Retries,
			"replays":      rep.Replays,
			"degradations": rep.Degradations,
			"cycles":       rep.TotalCycles,
			"extra_cycles": rep.ExtraCycles,
			"emitted":      rep.Emitted,
		})
	}
}

// recoveryDepth is the deepest recovery-ladder level a run escalated to:
// 0 clean, 1 retries, 2 subtree replays, 3 degradation replans.
func recoveryDepth(rep *Report) int {
	switch {
	case rep.Degradations > 0:
		return 3
	case rep.Replays > 0:
		return 2
	case rep.Retries > 0:
		return 1
	default:
		return 0
	}
}

// executor carries the state that survives degradation replans: the parked
// waste pool, the dead-mixer roster and the cost ledger.
type executor struct {
	// ctx is the run's cancellation scope, checked at every cycle boundary
	// of the replay and at every recovery replan chunk.
	ctx    context.Context
	cache  *plancache.Cache // of the plan run; degraded replans use it
	pol    Policy
	inj    *faults.Injector
	rep    *Report
	origin *chip.Layout
	stuck  []chip.Point
	dead   map[string]bool
	// pool parks waste droplets by exact composition (CF-vector key); the
	// recovery levels re-seed from it before dispensing fresh inputs.
	pool    map[string][]errormodel.Droplet
	nfluids int
	offset  int
	// led is the always-on droplet auditor: every dispense, mix-split,
	// park, loss and emission is ledgered and checked against strict,
	// policy-independent invariants (see internal/audit).
	led *audit.Ledger

	cyclesDone  int // completed schedule cycles (abandoned ones pro rata)
	extraCycles int // recovery cycles, checked against the budget
	replays     int
}

// execCtx is the per-schedule execution context.
type execCtx struct {
	s      *sched.Schedule
	layout *chip.Layout
	// mat is the dense transport-cost matrix of the (possibly degraded)
	// layout, shared via route.MatrixFor's fingerprint cache: repeated
	// chunks on the same degraded geometry pay for exactly one matrix build.
	mat     *route.Matrix
	mixers  []chip.Module
	resv    map[int]string // fluid -> reservoir name
	waste   string         // parked-waste home (first waste reservoir)
	out     string
	inbox   map[int][]errormodel.Droplet
	outputs map[int][]errormodel.Droplet
	mixed   map[int]bool
	// cells holds droplets parked in storage, keyed by (producer, consumer)
	// task IDs — NOT by cell name: exec reuses a physical cell back-to-back
	// (a store into it can share the cycle of the fetch out of it), and the
	// task pair is the unambiguous identity exec.Plan.StorageCells uses too.
	cells   map[[2]int]stored
	emitted int // rep.Emitted at ctx start
}

type stored struct {
	d       errormodel.Droplet
	content string
}

func (c *execCtx) mixerName(k int) string { return c.mixers[k-1].Name }

// dist resolves a transport cost through the dense matrix, failing loudly
// (route.ErrUnknownPair wrapped in ErrPlanMismatch) instead of silently
// reading distance 0 for modules outside the bound layout.
func (c *execCtx) dist(from, to string) (int, error) {
	d, err := c.mat.Dist(from, to)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrPlanMismatch, err)
	}
	return d, nil
}

// step is one plan move with its semantics resolved: which task consumes the
// droplet, which produced it, which fluid is dispensed, which cell parks it.
type step struct {
	mv       exec.Move
	consumer *forest.Task
	producer *forest.Task
	fluid    int
	cell     string
}

// degradeErr signals that a mixer died mid-run and the executor must drop it
// from the roster and replan the remaining work.
type degradeErr struct {
	mixer string
	cycle int
}

func (d *degradeErr) Error() string {
	return fmt.Sprintf("runtime: mixer %s dead at cycle %d", d.mixer, d.cycle)
}

// exec replays one schedule's plan move-by-move.
func (e *executor) exec(s *sched.Schedule, plan *exec.Plan) error {
	c, err := e.newCtx(s, plan)
	if err != nil {
		return err
	}
	steps, err := buildSteps(c, plan)
	if err != nil {
		return err
	}
	cycle := 0 // last cycle boundary a cancellation check ran at
	for i := range steps {
		if cy := steps[i].mv.Cycle; cy != cycle {
			// Cycle boundary: the documented cancellation point. A canceled
			// run stops before starting the next cycle's moves, so the
			// partial report stays consistent at a cycle granularity.
			if err := cancel.Check(e.ctx); err != nil {
				e.cyclesDone += cycle
				return fmt.Errorf("runtime: at cycle boundary %d: %w", cy, err)
			}
			cycle = cy
		}
		if err := e.step(c, &steps[i]); err != nil {
			var d *degradeErr
			if errors.As(err, &d) {
				return e.degrade(c, d)
			}
			return err
		}
	}
	e.cyclesDone += s.Cycles
	return nil
}

func (e *executor) newCtx(s *sched.Schedule, plan *exec.Plan) (*execCtx, error) {
	layout := e.origin
	if len(e.stuck) > 0 || len(e.dead) > 0 {
		layout = e.origin.Degrade(e.dead, e.stuck)
	}
	mat, err := route.MatrixFor(layout)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrChipBlocked, err)
	}
	c := &execCtx{
		s:       s,
		layout:  layout,
		mat:     mat,
		mixers:  layout.OfKind(chip.Mixer),
		resv:    map[int]string{},
		inbox:   map[int][]errormodel.Droplet{},
		outputs: map[int][]errormodel.Droplet{},
		mixed:   map[int]bool{},
		cells:   map[[2]int]stored{},
		emitted: e.rep.Emitted,
	}
	for _, m := range layout.OfKind(chip.Reservoir) {
		c.resv[m.Fluid] = m.Name
	}
	if ws := layout.OfKind(chip.Waste); len(ws) > 0 {
		c.waste = ws[0].Name
	}
	if outs := layout.OfKind(chip.Output); len(outs) > 0 {
		c.out = outs[0].Name
	}
	if len(c.mixers) < s.Mixers || c.out == "" || c.waste == "" {
		return nil, fmt.Errorf("%w: layout lacks resources for the schedule", ErrChipBlocked)
	}
	return c, nil
}

// buildSteps regenerates the plan's move list with task semantics attached,
// replicating exec.executeBound's generation order exactly, and cross-checks
// the result against the plan move-for-move.
func buildSteps(c *execCtx, plan *exec.Plan) ([]step, error) {
	s := c.s
	n := s.Forest.Target().N()
	wastes := c.layout.OfKind(chip.Waste)
	nearest := func(from string) (string, error) {
		best, bestCost := wastes[0].Name, int(^uint(0)>>1)
		for _, w := range wastes {
			d, err := c.dist(from, w.Name)
			if err != nil {
				return "", err
			}
			if d < bestCost {
				best, bestCost = w.Name, d
			}
		}
		return best, nil
	}
	var steps []step
	add := func(cycle int, from, to string, p exec.Purpose, content string, st step) error {
		d, err := c.dist(from, to)
		if err != nil {
			return err
		}
		st.mv = exec.Move{Cycle: cycle, From: from, To: to, Cost: d, Purpose: p, Content: content}
		steps = append(steps, st)
		return nil
	}
	for _, t := range s.Forest.Tasks {
		a := s.At(t)
		dst := c.mixerName(a.Mixer)
		for _, src := range t.In {
			switch src.Kind {
			case forest.Input:
				r, ok := c.resv[src.Fluid]
				if !ok {
					return nil, fmt.Errorf("%w: no reservoir for fluid %d", ErrChipBlocked, src.Fluid)
				}
				if err := add(a.Cycle, r, dst, exec.Dispense, ratio.Unit(src.Fluid, n).Key(), step{consumer: t, fluid: src.Fluid}); err != nil {
					return nil, err
				}
			case forest.FromTask:
				p := s.At(src.Task)
				from := c.mixerName(p.Mixer)
				content := src.Task.Vec.Key()
				if cell, ok := plan.StorageCells[[2]int{src.Task.ID, t.ID}]; ok {
					if err := add(p.Cycle, from, cell, exec.Store, content, step{producer: src.Task, consumer: t, cell: cell}); err != nil {
						return nil, err
					}
					if err := add(a.Cycle, cell, dst, exec.Fetch, content, step{producer: src.Task, consumer: t, cell: cell}); err != nil {
						return nil, err
					}
				} else {
					if err := add(a.Cycle, from, dst, exec.Transfer, content, step{producer: src.Task, consumer: t}); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	for _, t := range s.Forest.Tasks {
		a := s.At(t)
		from := c.mixerName(a.Mixer)
		for k := 0; k < t.Targets; k++ {
			if err := add(a.Cycle, from, c.out, exec.Emit, t.Vec.Key(), step{producer: t}); err != nil {
				return nil, err
			}
		}
		for k := 0; k < t.FreeOutputs(); k++ {
			w, err := nearest(from)
			if err != nil {
				return nil, err
			}
			if err := add(a.Cycle, from, w, exec.Discard, t.Vec.Key(), step{producer: t}); err != nil {
				return nil, err
			}
		}
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].mv.Cycle < steps[j].mv.Cycle })
	if len(steps) != len(plan.Moves) {
		return nil, fmt.Errorf("%w: %d steps vs %d moves", ErrPlanMismatch, len(steps), len(plan.Moves))
	}
	for i := range steps {
		if steps[i].mv != plan.Moves[i] {
			return nil, fmt.Errorf("%w: move %d: %+v vs %+v", ErrPlanMismatch, i, steps[i].mv, plan.Moves[i])
		}
	}
	return steps, nil
}

// logMove appends an executed transport to the run log and its actuations to
// the ledger.
func (e *executor) logMove(mv exec.Move) {
	e.rep.Moves = append(e.rep.Moves, mv)
	e.rep.TotalActuations += mv.Cost
}

// recoveryMove synthesises and logs a transport performed by a recovery
// action (re-dispense, pool fetch, replay delivery). A recovery route between
// modules unknown to the bound layout is a plan mismatch, reported loudly.
func (e *executor) recoveryMove(c *execCtx, cycle int, from, to string, p exec.Purpose, content string) error {
	d, err := c.dist(from, to)
	if err != nil {
		return err
	}
	e.logMove(exec.Move{Cycle: cycle, From: from, To: to, Cost: d, Purpose: p, Content: content})
	return nil
}

func (e *executor) spendCycles(n int) error {
	e.extraCycles += n
	if e.pol.RecoveryBudget > 0 && e.extraCycles > e.pol.RecoveryBudget {
		return fmt.Errorf("%w: %d extra cycles exceed budget %d", ErrRecoveryBudget, e.extraCycles, e.pol.RecoveryBudget)
	}
	return nil
}

// step executes one plan move with fault checks and recovery.
func (e *executor) step(c *execCtx, st *step) error {
	mv := st.mv
	switch mv.Purpose {
	case exec.Dispense:
		d, err := e.dispense(c, st.fluid, mv.Cycle, mv.From)
		if err != nil {
			return err
		}
		e.logMove(mv)
		return e.deliver(c, st.consumer, d, mv.Cycle)

	case exec.Transfer:
		d, err := e.takeOutput(c, st.producer)
		if err != nil {
			return err
		}
		e.logMove(mv)
		d, err = e.guardLoss(c, d, st.producer, mv)
		if err != nil {
			return err
		}
		return e.deliver(c, st.consumer, d, mv.Cycle)

	case exec.Store:
		d, err := e.takeOutput(c, st.producer)
		if err != nil {
			return err
		}
		e.logMove(mv)
		d, err = e.guardLoss(c, d, st.producer, mv)
		if err != nil {
			return err
		}
		c.cells[[2]int{st.producer.ID, st.consumer.ID}] = stored{d: d, content: mv.Content}
		return nil

	case exec.Fetch:
		key := [2]int{st.producer.ID, st.consumer.ID}
		sd, ok := c.cells[key]
		if !ok {
			return fmt.Errorf("%w: fetch from empty cell %s", ErrPlanMismatch, st.cell)
		}
		delete(c.cells, key)
		e.logMove(mv)
		d, err := e.guardLoss(c, sd.d, st.producer, mv)
		if err != nil {
			return err
		}
		return e.deliver(c, st.consumer, d, mv.Cycle)

	case exec.Emit:
		d, err := e.takeOutput(c, st.producer)
		if err != nil {
			return err
		}
		e.logMove(mv)
		d, err = e.guardLoss(c, d, st.producer, mv)
		if err != nil {
			return err
		}
		return e.emit(c, st.producer, d, mv.Cycle)

	case exec.Discard:
		d, err := e.takeOutput(c, st.producer)
		if err != nil {
			return err
		}
		e.logMove(mv)
		// Waste routes carry no sensor; park the droplet for recovery reuse.
		e.pool[mv.Content] = append(e.pool[mv.Content], d)
		e.led.Park(e.offset+mv.Cycle, mv.Content)
		return nil
	}
	return fmt.Errorf("%w: unknown purpose %v", ErrPlanMismatch, mv.Purpose)
}

// dispense produces a fresh unit droplet of the fluid, retrying failed
// dispenses up to the policy bound. Each failed shot consumes an input
// droplet and a recovery cycle.
func (e *executor) dispense(c *execCtx, fluid, cycle int, reservoir string) (errormodel.Droplet, error) {
	for attempt := 0; attempt <= e.pol.MaxRetries; attempt++ {
		if !e.inj.DispenseFails(e.offset+cycle, reservoir, attempt) {
			e.rep.TotalDroplets++
			e.led.Dispense(e.offset+cycle, fluid)
			return errormodel.Fresh(fluid, e.nfluids, 0), nil
		}
		e.rep.Detected++
		if attempt == e.pol.MaxRetries {
			break
		}
		e.rep.Retries++
		e.rep.TotalDroplets++ // the malformed shot goes to waste
		e.led.FailedShot(e.offset + cycle)
		if err := e.spendCycles(1); err != nil {
			return errormodel.Droplet{}, err
		}
	}
	return errormodel.Droplet{}, fmt.Errorf("%w: dispense of fluid %d from %s at cycle %d",
		ErrRetriesExhausted, fluid, reservoir, cycle)
}

// takeOutput pops the next output droplet of a mixed task.
func (e *executor) takeOutput(c *execCtx, t *forest.Task) (errormodel.Droplet, error) {
	if !c.mixed[t.ID] || len(c.outputs[t.ID]) == 0 {
		return errormodel.Droplet{}, fmt.Errorf("%w: output of task %d consumed before production", ErrPlanMismatch, t.ID)
	}
	outs := c.outputs[t.ID]
	d := outs[0]
	c.outputs[t.ID] = outs[1:]
	return d, nil
}

// deliver hands a droplet to its consuming task; once both inputs arrived
// the mix-split runs under the checkpoint sensor.
func (e *executor) deliver(c *execCtx, t *forest.Task, d errormodel.Droplet, cycle int) error {
	c.inbox[t.ID] = append(c.inbox[t.ID], d)
	if len(c.inbox[t.ID]) < 2 {
		return nil
	}
	ins := c.inbox[t.ID]
	delete(c.inbox, t.ID)
	mixer := c.mixerName(c.s.At(t).Mixer)
	if dieAt, ok := e.inj.MixerDeadAt(mixer); ok && !e.dead[mixer] && e.offset+cycle >= dieAt {
		// The mixer refuses the mix; its loaded droplets are unrecoverable.
		e.led.Lose(e.offset+cycle, "droplet stranded in dead mixer "+mixer)
		e.led.Lose(e.offset+cycle, "droplet stranded in dead mixer "+mixer)
		return &degradeErr{mixer: mixer, cycle: cycle}
	}
	hi, lo, err := e.mixSplit(c, t, ins[0], ins[1], cycle, mixer)
	if err != nil {
		return err
	}
	c.outputs[t.ID] = []errormodel.Droplet{hi, lo}
	c.mixed[t.ID] = true
	return nil
}

// mixSplit merges two droplets and splits the result, re-splitting under the
// checkpoint sensor until the imbalance and CF pass or retries run out.
func (e *executor) mixSplit(c *execCtx, t *forest.Task, a, b errormodel.Droplet, cycle int, mixer string) (errormodel.Droplet, errormodel.Droplet, error) {
	merged := errormodel.Mix(a, b)
	want := t.Vec.Floats()
	for attempt := 0; attempt <= e.pol.MaxRetries; attempt++ {
		eps := e.inj.SplitEpsilon(e.offset+cycle, mixer, attempt, e.pol.SensorThreshold)
		hi, lo := errormodel.Split(merged, eps)
		if math.Abs(eps) <= e.pol.SensorThreshold &&
			hi.LinfError(want) <= e.pol.CFTolerance && lo.LinfError(want) <= e.pol.CFTolerance {
			e.led.MixSplit(e.offset+cycle, mixer, a, b, hi, lo, t.Vec)
			return hi, lo, nil
		}
		e.rep.Detected++
		if attempt == e.pol.MaxRetries {
			break
		}
		e.rep.Retries++
		if err := e.spendCycles(1); err != nil {
			return errormodel.Droplet{}, errormodel.Droplet{}, err
		}
	}
	return errormodel.Droplet{}, errormodel.Droplet{},
		fmt.Errorf("%w: mix-split of task %d on %s at cycle %d", ErrRetriesExhausted, t.ID, mixer, cycle)
}

// guardLoss watches a droplet transport; a lost droplet is replaced from the
// parked-waste pool or by replaying the producing subtree, bounded by the
// retry policy.
func (e *executor) guardLoss(c *execCtx, d errormodel.Droplet, producer *forest.Task, mv exec.Move) (errormodel.Droplet, error) {
	for attempt := 0; attempt <= e.pol.MaxRetries; attempt++ {
		if !e.inj.DropletLost(e.offset+mv.Cycle, mv.From, mv.To, attempt) {
			return d, nil
		}
		e.rep.Detected++
		e.led.Lose(e.offset+mv.Cycle, "droplet lost in transit "+mv.From+"->"+mv.To)
		if attempt == e.pol.MaxRetries {
			break
		}
		e.rep.Retries++
		if err := e.spendCycles(1); err != nil {
			return errormodel.Droplet{}, err
		}
		nd, err := e.replacement(c, producer, mv)
		if err != nil {
			return errormodel.Droplet{}, err
		}
		d = nd
	}
	return errormodel.Droplet{}, fmt.Errorf("%w: droplet lost %s->%s at cycle %d",
		ErrRetriesExhausted, mv.From, mv.To, mv.Cycle)
}

// replacement regenerates a droplet of the move's exact composition:
// parked-waste pool first, then a minimal subtree replay.
func (e *executor) replacement(c *execCtx, producer *forest.Task, mv exec.Move) (errormodel.Droplet, error) {
	if d, ok := e.takePool(e.offset+mv.Cycle, mv.Content); ok {
		if err := e.recoveryMove(c, mv.Cycle, c.waste, mv.To, exec.Fetch, mv.Content); err != nil {
			return errormodel.Droplet{}, err
		}
		return d, nil
	}
	d, mixer, err := e.replay(c, producer, mv.Cycle)
	if err != nil {
		return errormodel.Droplet{}, err
	}
	if err := e.recoveryMove(c, mv.Cycle, mixer, mv.To, exec.Transfer, mv.Content); err != nil {
		return errormodel.Droplet{}, err
	}
	return d, nil
}

func (e *executor) takePool(cycle int, content string) (errormodel.Droplet, bool) {
	ds := e.pool[content]
	if len(ds) == 0 {
		return errormodel.Droplet{}, false
	}
	d := ds[len(ds)-1]
	e.pool[content] = ds[:len(ds)-1]
	e.led.Unpark(cycle, content)
	return d, true
}

// replay re-executes the minimal subtree producing a droplet equivalent to
// t's output: inputs come from the parked-waste pool when a matching
// composition is available, else from fresh dispenses or recursive replays.
// The spare half of the redone split joins the pool.
func (e *executor) replay(c *execCtx, t *forest.Task, cycle int) (errormodel.Droplet, string, error) {
	if e.replays >= e.pol.MaxReplays {
		return errormodel.Droplet{}, "", fmt.Errorf("%w: while regenerating task %d", ErrReplayLimit, t.ID)
	}
	e.replays++
	e.rep.Replays++
	mixer := e.aliveMixerFor(c, t, cycle)
	if mixer == "" {
		return errormodel.Droplet{}, "", fmt.Errorf("%w: replay of task %d", ErrNoMixersLeft, t.ID)
	}
	var ins [2]errormodel.Droplet
	for i, src := range t.In {
		switch src.Kind {
		case forest.Input:
			r, ok := c.resv[src.Fluid]
			if !ok {
				return errormodel.Droplet{}, "", fmt.Errorf("%w: no reservoir for fluid %d", ErrChipBlocked, src.Fluid)
			}
			d, err := e.dispense(c, src.Fluid, cycle, r)
			if err != nil {
				return errormodel.Droplet{}, "", err
			}
			if err := e.recoveryMove(c, cycle, r, mixer, exec.Dispense, ratio.Unit(src.Fluid, e.nfluids).Key()); err != nil {
				return errormodel.Droplet{}, "", err
			}
			ins[i] = d
		case forest.FromTask:
			key := src.Task.Vec.Key()
			if d, ok := e.takePool(e.offset+cycle, key); ok {
				if err := e.recoveryMove(c, cycle, c.waste, mixer, exec.Fetch, key); err != nil {
					return errormodel.Droplet{}, "", err
				}
				ins[i] = d
				continue
			}
			d, from, err := e.replay(c, src.Task, cycle)
			if err != nil {
				return errormodel.Droplet{}, "", err
			}
			if err := e.recoveryMove(c, cycle, from, mixer, exec.Transfer, key); err != nil {
				return errormodel.Droplet{}, "", err
			}
			ins[i] = d
		}
	}
	if err := e.spendCycles(1); err != nil { // the redone mix-split cycle
		return errormodel.Droplet{}, "", err
	}
	hi, lo, err := e.mixSplit(c, t, ins[0], ins[1], cycle, mixer)
	if err != nil {
		return errormodel.Droplet{}, "", err
	}
	e.pool[t.Vec.Key()] = append(e.pool[t.Vec.Key()], lo)
	e.led.Park(e.offset+cycle, t.Vec.Key())
	return hi, mixer, nil
}

// aliveMixerFor returns the task's scheduled mixer if it is still alive at
// the cycle, else the first alive mixer, else "".
func (e *executor) aliveMixerFor(c *execCtx, t *forest.Task, cycle int) string {
	alive := func(name string) bool {
		if e.dead[name] {
			return false
		}
		if dieAt, ok := e.inj.MixerDeadAt(name); ok && e.offset+cycle >= dieAt {
			return false
		}
		return true
	}
	if a := c.s.At(t); a.Mixer >= 1 && a.Mixer <= len(c.mixers) {
		if name := c.mixerName(a.Mixer); alive(name) {
			return name
		}
	}
	for _, m := range c.mixers {
		if alive(m.Name) {
			return m.Name
		}
	}
	return ""
}

// emit runs the output-port sensor on a target droplet: CF within tolerance
// and volume within the sensor threshold, or the producing root is replayed.
func (e *executor) emit(c *execCtx, producer *forest.Task, d errormodel.Droplet, cycle int) error {
	want := producer.Vec.Floats()
	for attempt := 0; attempt <= e.pol.MaxRetries; attempt++ {
		if cfErr := d.LinfError(want); cfErr <= e.pol.CFTolerance && math.Abs(d.Volume-1) <= e.pol.SensorThreshold {
			e.rep.Emitted++
			e.rep.Targets = append(e.rep.Targets, TargetReading{Cycle: e.offset + cycle, Volume: d.Volume, CFError: cfErr})
			e.led.Emit(e.offset+cycle, producer.Vec, d)
			return nil
		}
		e.rep.Detected++
		if attempt == e.pol.MaxRetries {
			break
		}
		e.rep.Retries++
		e.led.Lose(e.offset+cycle, "target droplet rejected at output port")
		if err := e.spendCycles(1); err != nil {
			return err
		}
		nd, mixer, err := e.replay(c, producer, cycle)
		if err != nil {
			return err
		}
		if err := e.recoveryMove(c, cycle, mixer, c.out, exec.Emit, producer.Vec.Key()); err != nil {
			return err
		}
		d = nd
	}
	return fmt.Errorf("%w: emitted droplet out of tolerance at cycle %d", ErrRetriesExhausted, cycle)
}

// degrade drops a dead mixer from the roster and replans the remaining work
// on the surviving mixers (recovery level 3).
func (e *executor) degrade(c *execCtx, d *degradeErr) error {
	e.dead[d.mixer] = true
	e.rep.DeadMixers = append(e.rep.DeadMixers, d.mixer)
	e.rep.Degradations++
	e.rep.Detected++
	e.inj.RecordMixerDeath(e.offset+d.cycle, d.mixer)
	e.cyclesDone += d.cycle // cycles already consumed by the abandoned schedule
	// Park survivors: stored droplets and unconsumed outputs re-seed replays.
	for cell, sd := range c.cells {
		e.pool[sd.content] = append(e.pool[sd.content], sd.d)
		e.led.Park(e.offset+d.cycle, sd.content)
		delete(c.cells, cell)
	}
	for id, outs := range c.outputs {
		if len(outs) > 0 {
			key := c.s.Forest.Tasks[id].Vec.Key()
			e.pool[key] = append(e.pool[key], outs...)
			for range outs {
				e.led.Park(e.offset+d.cycle, key)
			}
		}
	}
	// Half-delivered inputs of other tasks are stranded on the abandoned
	// schedule's routes; they are wasted, not parked — reusing them would
	// change the recovery economics the golden tests pin.
	for id, ins := range c.inbox {
		for range ins {
			e.led.Lose(e.offset+d.cycle, fmt.Sprintf("input of task %d abandoned by degradation", id))
		}
		delete(c.inbox, id)
	}
	remaining := c.s.Forest.Demand - (e.rep.Emitted - c.emitted)
	if remaining <= 0 {
		return nil
	}
	return e.replan(schemeOf(c.s), c.s.Forest.Base, remaining, d)
}

// schemeOf returns the scheduling scheme a schedule was built with; an OMS
// schedule replans like MMS.
func schemeOf(s *sched.Schedule) stream.Scheduler {
	scheme, _ := stream.ParseScheduler(s.Algorithm)
	return scheme
}

// replan schedules the remaining demand on the surviving mixers of the
// degraded chip, then executes the new plan under the same injector. Plans
// are cached under the recovery policy's fingerprint so a degraded plan is
// never served for a pristine-chip request. When the remaining demand's
// single-pass schedule no longer fits the degraded chip (fewer mixers need
// more storage), the demand is halved into multiple passes until it binds —
// the streaming engine's storage-constrained discipline applied to recovery.
func (e *executor) replan(prev stream.Scheduler, base *mixgraph.Graph, demand int, cause error) error {
	alive := e.origin.Degrade(e.dead, e.stuck)
	// Mixers walled off by stuck electrodes die with the roster drop.
	for _, name := range cutOffMixers(alive) {
		if !e.dead[name] {
			e.dead[name] = true
			e.rep.DeadMixers = append(e.rep.DeadMixers, name)
			e.rep.Detected++
			e.inj.RecordMixerDeath(e.offset+1, name)
		}
	}
	alive = e.origin.Degrade(e.dead, e.stuck)
	mixers := len(alive.OfKind(chip.Mixer))
	if mixers < 1 {
		return fmt.Errorf("%w: after %v", ErrNoMixersLeft, cause)
	}
	// Prefer the schedule's own scheme; fall back to the storage-frugal SRS
	// when the degraded binding does not fit.
	order := []stream.Scheduler{stream.MMS, stream.SRS}
	if prev == stream.SRS {
		order = order[1:]
	}
	lastErr := cause
	remaining, chunk := demand, demand
	for remaining > 0 {
		// Replan chunks are recovery work; a canceled request must not keep
		// burning planner time on the degraded chip.
		if err := cancel.Check(e.ctx); err != nil {
			return fmt.Errorf("runtime: degraded replan with %d droplets remaining: %w", remaining, err)
		}
		if chunk > remaining {
			chunk = remaining
		}
		before := e.rep.Emitted
		plan, schedule, err := e.bindChunk(order, base, chunk, mixers, alive)
		if err != nil {
			// The chunk does not bind on the degraded chip: stream it in
			// smaller passes instead.
			lastErr = err
			if chunk <= 2 {
				return fmt.Errorf("%w: degraded replan on %d mixers: %v", ErrUnrecoverable, mixers, lastErr)
			}
			chunk = (chunk/2 + 1) / 2 * 2 // halve, rounded up to even
			continue
		}
		if err := e.exec(schedule, plan); err != nil {
			// exec handles its own degradations recursively; anything
			// surfacing here is a dead-end.
			return err
		}
		remaining -= e.rep.Emitted - before
		if e.rep.Emitted == before {
			return fmt.Errorf("%w: degraded replan emitted nothing", ErrUnrecoverable)
		}
	}
	return nil
}

// bindChunk plans `demand` droplets on the degraded chip and binds the
// schedule to it, trying the scheduling schemes in order.
func (e *executor) bindChunk(order []stream.Scheduler, base *mixgraph.Graph, demand, mixers int, alive *chip.Layout) (*exec.Plan, *sched.Schedule, error) {
	var lastErr error
	for _, scheme := range order {
		// Degraded replans are built and audited by the same plan builder
		// as pristine plans; the policy key keeps them apart in the cache.
		p, err := stream.Plan(e.ctx, stream.Config{Base: base, Mixers: mixers, Scheduler: scheme, Cache: e.cache},
			demand, e.pol.Fingerprint())
		if err != nil {
			lastErr = err
			continue
		}
		plan, err := exec.Execute(p.Schedule(), alive)
		if err != nil {
			lastErr = err
			continue
		}
		return plan, p.Schedule(), nil
	}
	return nil, nil, lastErr
}

// cutOffMixers returns mixers whose port is blocked or unreachable from the
// output port on the (stuck-aware) layout. A blocked output port cuts
// nothing.
func cutOffMixers(l *chip.Layout) []string {
	outs := l.OfKind(chip.Output)
	if len(outs) == 0 {
		return nil
	}
	start := outs[0].Port
	if l.Blocked()(start) {
		return nil
	}
	r := route.NewRouter(l)
	var cut []string
	for _, m := range l.OfKind(chip.Mixer) {
		if _, err := r.Distance(start, m.Port); err != nil {
			cut = append(cut, m.Name)
		}
	}
	return cut
}
