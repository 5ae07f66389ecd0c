// Package motion routes the droplets of one transport plan concurrently on
// the electrode array, respecting the fluidic constraints of digital
// microfluidics. The exec package prices each move by its shortest path in
// isolation; motion answers the harder operational question — can all the
// moves of one time-cycle run simultaneously without droplets merging
// accidentally, and how many electrode micro-steps does the cycle really
// take? This is the routing layer the paper delegates to prior work (path
// scheduling, Grissom & Brisk, DAC 2012 [8]).
//
// Constraints enforced (the standard static and dynamic droplet-
// interference rules): at every micro-step two concurrently routed droplets
// keep Chebyshev distance >= 2, and the same margin holds between one
// droplet's position at t and another's at t±1, so droplets can never merge
// or swap. Droplets vanish when they reach their destination port (they
// enter the module); several droplets dispensed from one reservoir in the
// same cycle are injected sequentially.
//
// The router is prioritised space-time A* with a reservation table
// (cooperative path-finding): moves are routed longest-first, each new route
// avoiding everything already reserved, with waiting allowed.
package motion

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"

	"repro/internal/chip"
	"repro/internal/exec"
	"repro/internal/route"
)

// Route is one droplet's concurrent trajectory.
type Route struct {
	// Move is the transported droplet.
	Move exec.Move
	// Start is the micro-step the droplet enters the array.
	Start int
	// Steps holds the droplet's position at micro-steps Start, Start+1, ...;
	// the last entry is the destination port (the droplet then leaves the
	// array).
	Steps []chip.Point
}

// Arrival returns the micro-step the droplet reaches its destination.
func (r Route) Arrival() int { return r.Start + len(r.Steps) - 1 }

// CycleResult is one schedule cycle's concurrent routing.
type CycleResult struct {
	// Cycle is the schedule time-cycle.
	Cycle int
	// Routes are the cycle's droplet trajectories.
	Routes []Route
	// Makespan is the number of micro-steps until the last arrival.
	Makespan int
	// Serialized is what one-droplet-at-a-time execution would need
	// (the sum of the path costs).
	Serialized int
}

// Result is the routed plan.
type Result struct {
	Cycles []CycleResult
	// Makespan sums the per-cycle concurrent makespans.
	Makespan int
	// Serialized sums the per-cycle serialized costs.
	Serialized int
}

// Speedup reports serialized/concurrent micro-steps (>= 1).
func (r *Result) Speedup() float64 {
	if r.Makespan == 0 {
		return 1
	}
	return float64(r.Serialized) / float64(r.Makespan)
}

// Routing errors.
var (
	ErrUnroutable = errors.New("motion: no conflict-free route within the horizon")
)

// RoutePlan routes every cycle of the plan concurrently on the layout.
func RoutePlan(plan *exec.Plan, layout *chip.Layout) (*Result, error) {
	ports := endpointsOf(layout)
	// Each schedule cycle has two transport phases: arrivals (dispense,
	// transfer, fetch — droplets converging on mixers before the mix) and
	// departures (store, discard, emit — the mix products leaving). The two
	// phases never coexist on the array, so they are routed separately.
	type phase struct {
		cycle     int
		departure bool
	}
	byPhase := map[phase][]exec.Move{}
	var phases []phase
	for _, mv := range plan.Moves {
		p := phase{cycle: mv.Cycle}
		switch mv.Purpose {
		case exec.Store, exec.Discard, exec.Emit:
			p.departure = true
		}
		if _, ok := byPhase[p]; !ok {
			phases = append(phases, p)
		}
		byPhase[p] = append(byPhase[p], mv)
	}
	sort.Slice(phases, func(i, j int) bool {
		if phases[i].cycle != phases[j].cycle {
			return phases[i].cycle < phases[j].cycle
		}
		return !phases[i].departure && phases[j].departure
	})
	res := &Result{}
	byCycle := map[int]*CycleResult{}
	for _, p := range phases {
		cr, err := routeCycle(p.cycle, byPhase[p], layout, ports)
		if err != nil {
			return nil, fmt.Errorf("motion: cycle %d: %w", p.cycle, err)
		}
		if agg, ok := byCycle[p.cycle]; ok {
			// The departure phase runs strictly after the arrival phase:
			// shift its micro-step window past the arrivals' makespan.
			offset := agg.Makespan + 1
			for i := range cr.Routes {
				cr.Routes[i].Start += offset
			}
			agg.Routes = append(agg.Routes, cr.Routes...)
			agg.Makespan = offset + cr.Makespan
			agg.Serialized += cr.Serialized
		} else {
			byCycle[p.cycle] = cr
		}
	}
	// Rebuild the slice from the aggregated map, preserving cycle order.
	res.Cycles = res.Cycles[:0]
	var order []int
	for c := range byCycle {
		order = append(order, c)
	}
	sort.Ints(order)
	for _, c := range order {
		res.Cycles = append(res.Cycles, *byCycle[c])
		res.Makespan += byCycle[c].Makespan
		res.Serialized += byCycle[c].Serialized
	}
	return res, nil
}

// endpoints resolves where droplets appear (module exits) and where they are
// delivered (module ports).
type endpoints struct {
	in  map[string]chip.Point
	out map[string]chip.Point
}

func endpointsOf(layout *chip.Layout) endpoints {
	e := endpoints{in: map[string]chip.Point{}, out: map[string]chip.Point{}}
	for _, m := range layout.Modules {
		e.in[m.Name] = m.Port
		e.out[m.Name] = m.Out()
	}
	return e
}

// table is the space-time reservation table. Droplets not yet routed are
// inside their source modules and reserve nothing: a droplet enters the
// array only at its injection micro-step, so later-routed droplets simply
// delay their injection until the already-reserved trajectories allow it.
type table struct {
	traj    map[[3]int]int // (x, y, t) -> droplet id
	arrival map[int]int    // droplet id -> arrival micro-step
}

// conflicts reports whether droplet id may stand at c at micro-step t.
func (tb *table) conflicts(c chip.Point, t, id int) bool {
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			n := chip.Point{X: c.X + dx, Y: c.Y + dy}
			for _, tt := range [3]int{t - 1, t, t + 1} {
				if other, ok := tb.traj[[3]int{n.X, n.Y, tt}]; ok && other != id {
					return true
				}
			}
		}
	}
	return false
}

func routeCycle(cycle int, moves []exec.Move, layout *chip.Layout, ports endpoints) (*CycleResult, error) {
	// Longest moves first: they have the least routing slack.
	order := make([]int, len(moves))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return moves[order[a]].Cost > moves[order[b]].Cost })

	blocked := layout.Blocked()
	// One routing kernel per cycle prices every move's free-path cost
	// without a fresh flood allocation per move.
	router := route.NewRouter(layout)
	tb := &table{
		traj:    map[[3]int]int{},
		arrival: map[int]int{},
	}
	selfMove := func(mv exec.Move) bool { return mv.From == mv.To }
	// Sequential injection per source port: a droplet may enter the array
	// only after the previous droplet from the same reservoir has arrived.
	nextInject := map[chip.Point]int{}

	horizon := 4*(layout.Width+layout.Height) + 3*len(moves) + 8
	cr := &CycleResult{Cycle: cycle, Routes: make([]Route, len(moves))}
	routed := make([]bool, len(moves))
	retries := make([]int, len(moves))
	queue := append([]int(nil), order...)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		mv := moves[id]
		if selfMove(mv) {
			// The droplet stays inside the module (e.g. a mixer's output
			// feeding the same mixer's next mix): no array transport at all.
			routed[id] = true
			cr.Routes[id] = Route{Move: mv, Start: 0, Steps: []chip.Point{ports.in[mv.To]}}
			continue
		}
		from, to := ports.out[mv.From], ports.in[mv.To]
		steps, start, err := astar(layout, blocked, tb, id, from, to, nextInject[from], horizon)
		if err != nil {
			retries[id]++
			if retries[id] > len(moves)+1 {
				return nil, fmt.Errorf("%w: %s -> %s", err, mv.From, mv.To)
			}
			queue = append(queue, id)
			continue
		}
		rt := Route{Move: mv, Start: start, Steps: steps}
		for k, p := range steps {
			tb.traj[[3]int{p.X, p.Y, start + k}] = id
		}
		tb.arrival[id] = rt.Arrival()
		nextInject[from] = rt.Arrival() + 1
		routed[id] = true
		cr.Routes[id] = rt
		if a := rt.Arrival(); a > cr.Makespan {
			cr.Makespan = a
		}
		free, err := router.Distance(from, to)
		if err != nil {
			return nil, err
		}
		cr.Serialized += free
	}
	return cr, nil
}

// astar searches (position, time) space for the earliest arrival at `to`,
// allowing on-array waiting and arbitrary injection delay (the droplet may
// stay inside its source module): every conflict-free (from, t) with
// t >= start is a zero-history entry state. Cost is arrival time.
func astar(layout *chip.Layout, blocked func(chip.Point) bool, tb *table, id int, from, to chip.Point, start, horizon int) ([]chip.Point, int, error) {
	manhattan := func(p chip.Point) int {
		dx, dy := p.X-to.X, p.Y-to.Y
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		return dx + dy
	}
	open := &stateHeap{}
	gScore := map[state]int{}
	parent := map[state]state{}
	for t := start; t <= horizon; t++ {
		if tb.conflicts(from, t, id) {
			continue
		}
		st := state{from, t}
		gScore[st] = t
		heap.Push(open, heapItem{st, t + manhattan(from)})
	}
	for open.Len() > 0 {
		it := heap.Pop(open).(heapItem)
		cur := it.s
		if it.f > gScore[cur]+manhattan(cur.pos) {
			continue // stale heap entry
		}
		if cur.pos == to {
			var rev []chip.Point
			last := cur
			for s := cur; ; {
				rev = append(rev, s.pos)
				last = s
				p, ok := parent[s]
				if !ok {
					break
				}
				s = p
			}
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			return rev, last.t, nil
		}
		if cur.t >= horizon {
			continue
		}
		for _, d := range [5]chip.Point{{}, {X: 1}, {X: -1}, {Y: 1}, {Y: -1}} {
			next := state{chip.Point{X: cur.pos.X + d.X, Y: cur.pos.Y + d.Y}, cur.t + 1}
			if next.pos.X < 0 || next.pos.Y < 0 || next.pos.X >= layout.Width || next.pos.Y >= layout.Height {
				continue
			}
			if blocked(next.pos) || tb.conflicts(next.pos, next.t, id) {
				continue
			}
			g := next.t
			if old, seen := gScore[next]; seen && old <= g {
				continue
			}
			gScore[next] = g
			parent[next] = cur
			heap.Push(open, heapItem{next, g + manhattan(next.pos)})
		}
	}
	return nil, 0, ErrUnroutable
}

type heapItem struct {
	s state
	f int
}

type state struct {
	pos chip.Point
	t   int
}

type stateHeap []heapItem

func (h stateHeap) Len() int            { return len(h) }
func (h stateHeap) Less(i, j int) bool  { return h[i].f < h[j].f }
func (h stateHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *stateHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *stateHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
