// Package exec binds a mixing-forest schedule to a chip layout and derives
// the droplet-transport plan: which droplet moves where in every cycle, what
// each move costs in electrode actuations, and which storage cell parks each
// waiting droplet. This is the machinery behind §5 of the DAC 2014 paper,
// which compares the streaming engine (386 actuations for the D=20 PCR
// forest) against repeated baseline mixing (980 actuations) on the Fig. 5
// floorplan.
//
// All transport costs come from the dense routing kernel of internal/route:
// one cached cost-matrix per distinct layout geometry, index-addressed O(1)
// lookups in the binding loops, and loud route.ErrUnknownPair failures on
// any lookup naming a module the matrix does not cover (the legacy map form
// silently yielded distance 0, which could crown an unreachable module
// "nearest").
package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/cancel"
	"repro/internal/chip"
	"repro/internal/forest"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/ratio"
	"repro/internal/route"
	"repro/internal/sched"
)

// Purpose classifies a droplet movement.
type Purpose int8

const (
	// Dispense moves a fresh droplet from a fluid reservoir to a mixer.
	Dispense Purpose = iota
	// Transfer moves a droplet mixer-to-mixer (consumed the next cycle).
	Transfer
	// Store parks a droplet in a storage cell.
	Store
	// Fetch retrieves a stored droplet into a mixer.
	Fetch
	// Discard routes a waste droplet to a waste reservoir.
	Discard
	// Emit delivers a target droplet to the output port.
	Emit
)

func (p Purpose) String() string {
	switch p {
	case Dispense:
		return "dispense"
	case Transfer:
		return "transfer"
	case Store:
		return "store"
	case Fetch:
		return "fetch"
	case Discard:
		return "discard"
	case Emit:
		return "emit"
	default:
		return fmt.Sprintf("Purpose(%d)", int8(p))
	}
}

// Move is one droplet transport.
type Move struct {
	// Cycle is the schedule cycle the move serves (the cycle a consumed
	// droplet must arrive in, or the producing cycle for outgoing moves).
	Cycle int
	// From and To are module names.
	From, To string
	// Cost is the electrode-actuation cost (shortest-path length).
	Cost int
	// Purpose classifies the move.
	Purpose Purpose
	// Content identifies the droplet's exact composition (a CF-vector key):
	// the cross-contamination analysis groups moves by it.
	Content string
}

// Plan is a complete transport plan for one schedule on one layout.
type Plan struct {
	// Moves lists every droplet transport in cycle order.
	Moves []Move
	// TotalCost is the total number of electrode actuations (§5's metric).
	TotalCost int
	// StorageCells maps each stored droplet (producer task ID, consumer task
	// ID) to the storage module used.
	StorageCells map[[2]int]string
	// Flow is the symmetric module-to-module traffic matrix, reusable for
	// placement optimization.
	Flow chip.Flow
}

// Binding errors.
var (
	ErrNoMixerModules  = errors.New("exec: layout has fewer mixers than the schedule uses")
	ErrNoReservoir     = errors.New("exec: no reservoir for a required fluid")
	ErrNoWaste         = errors.New("exec: layout has no waste reservoir")
	ErrNoOutput        = errors.New("exec: layout has no output port")
	ErrStorageOverflow = errors.New("exec: schedule needs more storage cells than the layout offers")
)

// Execute derives the transport plan of schedule s on layout l.
//
// Binding rules: schedule mixer k runs on the k-th Mixer module; fluid i is
// dispensed from the reservoir declaring that fluid; a droplet consumed in
// the cycle right after production transfers mixer-to-mixer, otherwise it is
// parked in a storage cell (chosen nearest-first among free cells) and
// fetched later; unconsumed non-target droplets go to the nearest waste
// reservoir; target droplets go to the output port.
func Execute(s *sched.Schedule, l *chip.Layout) (*Plan, error) {
	defer obs.StartTimer("exec.execute_ms")()
	mixers := l.OfKind(chip.Mixer)
	if len(mixers) < s.Mixers {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrNoMixerModules, len(mixers), s.Mixers)
	}
	m, err := route.MatrixFor(l)
	if err != nil {
		return nil, err
	}
	binding := make([]int, s.Mixers)
	for i := range binding {
		binding[i] = i
	}
	p, err := executeBound(s, l, binding, m)
	if err != nil {
		return nil, err
	}
	obsPlan("exec.executes", p)
	return p, nil
}

// ExecuteOptimized searches over all bindings of the schedule's logical
// mixers onto the layout's physical mixer modules and returns the cheapest
// transport plan (ties resolved to the first minimal binding in
// permutation-enumeration order, matching the historical brute force).
//
// The search is branch-and-bound over partial binding cost: the cost matrix
// is computed once per layout geometry (hoisted out of the permutation
// loop via route.MatrixFor), every partial binding carries an admissible
// lower bound — exact dispense/transfer/emit/discard terms for the bound
// mixers plus best-case storage legs — and subtrees that cannot beat the
// incumbent are pruned. First-level branches (the physical module of
// logical mixer 1) run in parallel via internal/parallel, each with a
// private incumbent, and merge deterministically in branch order.
func ExecuteOptimized(s *sched.Schedule, l *chip.Layout) (*Plan, error) {
	return ExecuteOptimizedCtx(context.Background(), s, l)
}

// ExecuteOptimizedCtx is the context-aware binding search: cancellation is
// checked at every branch boundary of the branch-and-bound (each partial-
// binding expansion), so a server can abandon an expensive search within one
// branch. An abandoned search returns an error wrapping cancel.ErrCanceled.
func ExecuteOptimizedCtx(ctx context.Context, s *sched.Schedule, l *chip.Layout) (*Plan, error) {
	defer obs.StartTimer("exec.execute_optimized_ms")()
	mixers := l.OfKind(chip.Mixer)
	if len(mixers) < s.Mixers {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrNoMixerModules, len(mixers), s.Mixers)
	}
	m, err := route.MatrixFor(l)
	if err != nil {
		return nil, err
	}
	if s.Mixers == 0 {
		return executeBound(s, l, nil, m)
	}
	tr, err := newBindingTraffic(s, l, m)
	if err != nil {
		return nil, err
	}

	branches := make([]int, len(mixers))
	for i := range branches {
		branches[i] = i
	}
	results, err := parallel.Map(branches, func(_ int, first int) (*Plan, error) {
		b := &bbSearch{ctx: ctx, s: s, l: l, m: m, tr: tr, used: make([]bool, len(mixers))}
		b.perm = append(b.perm, first)
		b.used[first] = true
		b.lb = append(b.lb, tr.bindCost(b.perm, len(b.perm)-1))
		if err := b.dfs(); err != nil {
			return nil, err
		}
		return b.best, nil
	})
	if err != nil {
		return nil, err
	}
	var best *Plan
	for _, p := range results {
		if p != nil && (best == nil || p.TotalCost < best.TotalCost) {
			best = p
		}
	}
	obsPlan("exec.executes_optimized", best)
	return best, nil
}

// obsPlan exports one derived transport plan's headline numbers.
func obsPlan(counter string, p *Plan) {
	if p == nil || !obs.Enabled() {
		return
	}
	obs.Inc(counter)
	obs.Add("exec.actuations", int64(p.TotalCost))
	obs.Observe("exec.moves", float64(len(p.Moves)))
}

// bindingTraffic is the binding-independent traffic census of a schedule,
// precomputed once per ExecuteOptimized call: how many droplets each
// logical mixer exchanges with reservoirs, other logical mixers, storage,
// waste and the output. Whether a hand-off is a direct transfer or a
// store+fetch pair depends only on schedule cycles — never on the binding —
// so the census is exact for every permutation.
type bindingTraffic struct {
	m       *route.Matrix
	physIdx []int   // physical mixer -> matrix index
	outIdx  int     // output port matrix index
	disp    [][]int // per logical mixer: flattened (reservoir matrix index, count) pairs
	trans   []int   // trans[k1*(K+1)+k2] hand-off count between logical mixers (k1 <= k2)
	emit    []int   // per logical mixer: target emissions
	discard []int   // per logical mixer: waste discards
	storeIO []int   // per logical mixer: store legs out + fetch legs in
	minWst  []int   // per physical mixer: distance to its nearest waste
	minCell []int   // per physical mixer: distance to its nearest storage cell
}

func newBindingTraffic(s *sched.Schedule, l *chip.Layout, m *route.Matrix) (*bindingTraffic, error) {
	mixers := l.OfKind(chip.Mixer)
	k := s.Mixers
	tr := &bindingTraffic{
		m:       m,
		physIdx: make([]int, len(mixers)),
		disp:    make([][]int, k+1),
		trans:   make([]int, (k+1)*(k+1)),
		emit:    make([]int, k+1),
		discard: make([]int, k+1),
		storeIO: make([]int, k+1),
		minWst:  make([]int, len(mixers)),
		minCell: make([]int, len(mixers)),
	}
	lookup := func(name string) (int, error) {
		i, ok := m.IndexOf(name)
		if !ok {
			return 0, fmt.Errorf("%w: %q", route.ErrUnknownPair, name)
		}
		return i, nil
	}
	var err error
	for i, mod := range mixers {
		if tr.physIdx[i], err = lookup(mod.Name); err != nil {
			return nil, err
		}
	}
	if outs := l.OfKind(chip.Output); len(outs) > 0 {
		if tr.outIdx, err = lookup(outs[0].Name); err != nil {
			return nil, err
		}
	} else {
		return nil, ErrNoOutput
	}
	wastes := l.OfKind(chip.Waste)
	if len(wastes) == 0 {
		return nil, ErrNoWaste
	}
	storage := l.OfKind(chip.Storage)
	for i := range mixers {
		pi := tr.physIdx[i]
		best := int(^uint(0) >> 1)
		for _, w := range wastes {
			wi, err := lookup(w.Name)
			if err != nil {
				return nil, err
			}
			if d := m.At(pi, wi); d < best {
				best = d
			}
		}
		tr.minWst[i] = best
		best = 0
		if len(storage) > 0 {
			best = int(^uint(0) >> 1)
			for _, q := range storage {
				qi, err := lookup(q.Name)
				if err != nil {
					return nil, err
				}
				if d := m.At(pi, qi); d < best {
					best = d
				}
			}
		}
		tr.minCell[i] = best
	}
	resIdx := map[int]int{}
	for _, r := range l.OfKind(chip.Reservoir) {
		ri, err := lookup(r.Name)
		if err != nil {
			return nil, err
		}
		resIdx[r.Fluid] = ri
	}

	storedPair := map[[2]int]bool{}
	for _, sd := range sched.StoredDroplets(s) {
		if sd.From <= sd.To {
			storedPair[[2]int{sd.Producer.ID, sd.Consumer.ID}] = true
		}
	}
	dispCount := make([]map[int]int, k+1)
	for _, t := range s.Forest.Tasks {
		a := s.At(t)
		for _, src := range t.In {
			switch src.Kind {
			case forest.Input:
				ri, ok := resIdx[src.Fluid]
				if !ok {
					return nil, fmt.Errorf("%w: fluid %d", ErrNoReservoir, src.Fluid)
				}
				if dispCount[a.Mixer] == nil {
					dispCount[a.Mixer] = map[int]int{}
				}
				dispCount[a.Mixer][ri]++
			case forest.FromTask:
				p := s.At(src.Task)
				if storedPair[[2]int{src.Task.ID, t.ID}] {
					tr.storeIO[p.Mixer]++
					tr.storeIO[a.Mixer]++
				} else {
					lo, hi := int(p.Mixer), int(a.Mixer)
					if lo > hi {
						lo, hi = hi, lo
					}
					tr.trans[lo*(k+1)+hi]++
				}
			}
		}
		tr.emit[a.Mixer] += t.Targets
		tr.discard[a.Mixer] += t.FreeOutputs()
	}
	// Flatten the dispense census deterministically (sorted by reservoir
	// matrix index).
	for km := range tr.disp {
		counts := dispCount[km]
		if counts == nil {
			continue
		}
		ris := make([]int, 0, len(counts))
		for ri := range counts {
			ris = append(ris, ri)
		}
		sort.Ints(ris)
		flat := make([]int, 0, 2*len(ris))
		for _, ri := range ris {
			flat = append(flat, ri, counts[ri])
		}
		tr.disp[km] = flat
	}
	return tr, nil
}

// bindCost returns the admissible cost contribution of binding logical mixer
// p+1 (0-based position p in perm) given the earlier bindings: exact
// dispense/emit/discard terms, exact transfer terms to already-bound
// mixers, plus best-case storage legs (each store or fetch leg is at least
// the distance to the mixer's nearest cell). Every term lower-bounds the
// corresponding executeBound cost, so pruning on it is exact.
func (tr *bindingTraffic) bindCost(perm []int, p int) int {
	// BFS distances are symmetric and the census stores transfer counts
	// under (min,max) logical order, so one lookup direction suffices.
	// Self hand-offs (trans[k][k]) cost At(pi,pi) = 0 and are skipped.
	k := p + 1 // 1-based logical mixer being bound
	i := perm[p]
	pi := tr.physIdx[i]
	c := 0
	disp := tr.disp[k]
	for x := 0; x < len(disp); x += 2 {
		c += disp[x+1] * tr.m.At(disp[x], pi)
	}
	kk := len(tr.emit) // K+1
	for kp := 1; kp <= p; kp++ {
		lo, hi := kp, k
		if lo > hi {
			lo, hi = hi, lo
		}
		if n := tr.trans[lo*kk+hi]; n > 0 {
			c += n * tr.m.At(tr.physIdx[perm[kp-1]], pi)
		}
	}
	c += tr.emit[k] * tr.m.At(pi, tr.outIdx)
	c += tr.discard[k] * tr.minWst[i]
	c += tr.storeIO[k] * tr.minCell[i]
	return c
}

type bbSearch struct {
	ctx  context.Context
	s    *sched.Schedule
	l    *chip.Layout
	m    *route.Matrix
	tr   *bindingTraffic
	perm []int
	used []bool
	lb   []int // prefix lower bounds; lb[i] = contribution of perm[i]
	best *Plan
}

// dfs explores completions of the current partial binding in lexicographic
// order, pruning subtrees whose lower bound cannot beat the incumbent.
// Every call is one branch boundary — the search's cancellation point.
func (b *bbSearch) dfs() error {
	if err := cancel.Check(b.ctx); err != nil {
		return fmt.Errorf("exec: binding search: %w", err)
	}
	if len(b.perm) == b.s.Mixers {
		plan, err := executeBound(b.s, b.l, b.perm, b.m)
		if err != nil {
			return err
		}
		if b.best == nil || plan.TotalCost < b.best.TotalCost {
			b.best = plan
		}
		return nil
	}
	bound := 0
	for _, c := range b.lb {
		bound += c
	}
	for i := range b.used {
		if b.used[i] {
			continue
		}
		b.perm = append(b.perm, i)
		add := b.tr.bindCost(b.perm, len(b.perm)-1)
		if b.best != nil && bound+add >= b.best.TotalCost {
			b.perm = b.perm[:len(b.perm)-1]
			continue
		}
		b.used[i] = true
		b.lb = append(b.lb, add)
		if err := b.dfs(); err != nil {
			return err
		}
		b.lb = b.lb[:len(b.lb)-1]
		b.perm = b.perm[:len(b.perm)-1]
		b.used[i] = false
	}
	return nil
}

// executeBound derives the plan with logical mixer k running on physical
// mixer module binding[k-1], costing every move through the dense matrix m
// (built for l's geometry).
func executeBound(s *sched.Schedule, l *chip.Layout, binding []int, m *route.Matrix) (*Plan, error) {
	mixers := l.OfKind(chip.Mixer)
	lookup := func(name string) (int, error) {
		i, ok := m.IndexOf(name)
		if !ok {
			return 0, fmt.Errorf("%w: %q", route.ErrUnknownPair, name)
		}
		return i, nil
	}
	reservoirs := map[int]int{} // fluid -> matrix index
	resName := map[int]string{}
	var err error
	for _, r := range l.OfKind(chip.Reservoir) {
		if reservoirs[r.Fluid], err = lookup(r.Name); err != nil {
			return nil, err
		}
		resName[r.Fluid] = r.Name
	}
	wastes := l.OfKind(chip.Waste)
	if len(wastes) == 0 {
		return nil, ErrNoWaste
	}
	wasteIdx := make([]int, len(wastes))
	for i, w := range wastes {
		if wasteIdx[i], err = lookup(w.Name); err != nil {
			return nil, err
		}
	}
	outputs := l.OfKind(chip.Output)
	if len(outputs) == 0 {
		return nil, ErrNoOutput
	}
	out := outputs[0].Name
	outIdx, err := lookup(out)
	if err != nil {
		return nil, err
	}
	storage := l.OfKind(chip.Storage)
	storageIdx := make([]int, len(storage))
	for i, q := range storage {
		if storageIdx[i], err = lookup(q.Name); err != nil {
			return nil, err
		}
	}
	mixIdx := make([]int, len(binding))
	for k, bi := range binding {
		if mixIdx[k], err = lookup(mixers[bi].Name); err != nil {
			return nil, err
		}
	}
	mixerName := func(k int32) string { return mixers[binding[k-1]].Name }
	nearestWaste := func(fromIdx int) (string, int) {
		best, bestIdx, bestCost := wastes[0].Name, wasteIdx[0], int(^uint(0)>>1)
		for i, w := range wastes {
			if d := m.At(fromIdx, wasteIdx[i]); d < bestCost {
				best, bestIdx, bestCost = w.Name, wasteIdx[i], d
			}
		}
		return best, bestIdx
	}

	plan := &Plan{StorageCells: map[[2]int]string{}, Flow: chip.Flow{}}
	n := s.Forest.Target().N()
	add := func(cycle int32, from, to string, fromIdx, toIdx int, p Purpose, content string) {
		c := m.At(fromIdx, toIdx)
		plan.Moves = append(plan.Moves, Move{Cycle: int(cycle), From: from, To: to, Cost: c, Purpose: p, Content: content})
		plan.TotalCost += c
		plan.Flow.Add(from, to, 1)
	}

	// Assign storage cells to waiting droplets by interval: droplets whose
	// storage intervals overlap need distinct cells (greedy first-fit over
	// cells ordered near the producer works because intervals are released
	// in consumption order).
	type interval struct {
		sd      sched.StoredDroplet
		cell    string
		cellIdx int
	}
	var waiting []interval
	for _, sd := range sched.StoredDroplets(s) {
		if sd.From <= sd.To {
			waiting = append(waiting, interval{sd: sd})
		}
	}
	sort.Slice(waiting, func(i, j int) bool {
		if waiting[i].sd.From != waiting[j].sd.From {
			return waiting[i].sd.From < waiting[j].sd.From
		}
		return waiting[i].sd.Producer.ID < waiting[j].sd.Producer.ID
	})
	busyUntil := map[string]int{}
	cellIdxByName := map[string]int{}
	for i := range waiting {
		iv := &waiting[i]
		prodIdx := mixIdx[s.At(iv.sd.Producer).Mixer-1]
		// Candidate cells: free for the whole interval, nearest first.
		type cand struct {
			name string
			idx  int
			d    int
		}
		var cands []cand
		for qi, q := range storage {
			if busyUntil[q.Name] < iv.sd.From {
				cands = append(cands, cand{q.Name, storageIdx[qi], m.At(prodIdx, storageIdx[qi])})
			}
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("%w: at cycle %d (have %d cells)", ErrStorageOverflow, iv.sd.From, len(storage))
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].d != cands[b].d {
				return cands[a].d < cands[b].d
			}
			return cands[a].name < cands[b].name
		})
		iv.cell, iv.cellIdx = cands[0].name, cands[0].idx
		busyUntil[iv.cell] = iv.sd.To
		cellIdxByName[iv.cell] = iv.cellIdx
		plan.StorageCells[[2]int{iv.sd.Producer.ID, iv.sd.Consumer.ID}] = iv.cell
	}

	// Input moves: each task's two input droplets arrive at its mixer.
	for _, t := range s.Forest.Tasks {
		a := s.At(t)
		dst := mixerName(a.Mixer)
		dstIdx := mixIdx[a.Mixer-1]
		for _, src := range t.In {
			switch src.Kind {
			case forest.Input:
				ri, ok := reservoirs[src.Fluid]
				if !ok {
					return nil, fmt.Errorf("%w: fluid %d", ErrNoReservoir, src.Fluid)
				}
				add(a.Cycle, resName[src.Fluid], dst, ri, dstIdx, Dispense, ratio.Unit(src.Fluid, n).Key())
			case forest.FromTask:
				p := s.At(src.Task)
				from := mixerName(p.Mixer)
				fromIdx := mixIdx[p.Mixer-1]
				content := src.Task.Vec.Key()
				if cell, stored := plan.StorageCells[[2]int{src.Task.ID, t.ID}]; stored {
					ci := cellIdxByName[cell]
					add(p.Cycle, from, cell, fromIdx, ci, Store, content)
					add(a.Cycle, cell, dst, ci, dstIdx, Fetch, content)
				} else {
					add(a.Cycle, from, dst, fromIdx, dstIdx, Transfer, content)
				}
			}
		}
	}
	// Output moves: targets to the output port, free outputs to waste.
	for _, t := range s.Forest.Tasks {
		a := s.At(t)
		from := mixerName(a.Mixer)
		fromIdx := mixIdx[a.Mixer-1]
		for k := 0; k < t.Targets; k++ {
			add(a.Cycle, from, out, fromIdx, outIdx, Emit, t.Vec.Key())
		}
		for k := 0; k < t.FreeOutputs(); k++ {
			w, wi := nearestWaste(fromIdx)
			add(a.Cycle, from, w, fromIdx, wi, Discard, t.Vec.Key())
		}
	}
	sort.SliceStable(plan.Moves, func(i, j int) bool { return plan.Moves[i].Cycle < plan.Moves[j].Cycle })
	return plan, nil
}

// StorageCellsUsed returns how many distinct storage cells the plan touches.
func (p *Plan) StorageCellsUsed() int {
	set := map[string]bool{}
	for _, c := range p.StorageCells {
		set[c] = true
	}
	return len(set)
}
