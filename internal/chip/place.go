package chip

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Flow is a symmetric droplet-traffic matrix: Flow[{a,b}] counts how many
// droplet transports a schedule performs between modules a and b. The
// executor (internal/exec) produces it; the placer consumes it.
type Flow map[[2]string]int

// Add accumulates one transport between a and b (order-insensitive).
func (f Flow) Add(a, b string, n int) {
	if a > b {
		a, b = b, a
	}
	f[[2]string{a, b}] += n
}

// Distances is a dense inter-module transport-cost table indexed in
// Layout.Modules order: At(i, j) is the cost of moving a droplet from module
// i's port to module j's. *route.Matrix (from route.MatrixFor) satisfies it.
type Distances interface {
	Len() int
	At(i, j int) int
}

// ErrDistancesSize reports a distance table that does not cover exactly the
// layout's modules.
var ErrDistancesSize = errors.New("chip: distance table size differs from the module count")

// PlacementCost evaluates a layout against a traffic matrix: the total
// droplet-transportation cost sum(flow * distance) over the layout's
// distance table. Flow edges naming modules outside the layout cost 0.
func PlacementCost(l *Layout, flow Flow, d Distances) int {
	idx := moduleIndex(l)
	total := 0
	for k, n := range flow {
		ia, aok := idx[k[0]]
		ib, bok := idx[k[1]]
		if aok && bok {
			total += n * d.At(ia, ib)
		}
	}
	return total
}

func moduleIndex(l *Layout) map[string]int {
	idx := make(map[string]int, len(l.Modules))
	for i, m := range l.Modules {
		idx[m.Name] = i
	}
	return idx
}

// OptimizePlacement improves a layout for a given traffic matrix by
// simulated annealing over position swaps of same-footprint modules,
// mirroring the paper's "relative positions of reservoirs and mixers are
// optimized considering the total droplet-transportation cost" (§5).
//
// The annealing is incremental: a same-footprint swap exchanges two module
// rectangles in place, so the union of blocked electrodes — and therefore
// every port-position-to-port-position routing distance — is invariant
// across the whole search. The distance table of the input layout is read
// once into a dense position-indexed table; each candidate swap is then
// delta-evaluated over only the flow edges touching the two swapped
// modules, O(F_touched) per step. The table must be geometric — the cost of
// a module pair may depend only on the two port positions and the blocked
// set (route.MatrixFor and Manhattan-style models qualify) — which is
// exactly the invariant same-footprint swaps preserve.
//
// The search is deterministic for a fixed seed (pinned by the chip-layer
// fixtures of internal/experiments). It returns the best layout found and
// its cost; a layout with fewer than two modules has nothing to swap and
// comes back unchanged.
func OptimizePlacement(l *Layout, flow Flow, d Distances, iterations int, seed int64) (*Layout, int, error) {
	nm := len(l.Modules)
	if d.Len() != nm {
		return nil, 0, fmt.Errorf("%w: %d entries for %d modules", ErrDistancesSize, d.Len(), nm)
	}
	cur := cloneLayout(l)
	if nm < 2 {
		return cur, 0, nil
	}

	// Dense position-indexed distance table: position p is "where module p
	// sat in the input layout". D stays fixed; only the module->position
	// assignment evolves.
	D := make([]int32, nm*nm)
	for i := 0; i < nm; i++ {
		for j := 0; j < nm; j++ {
			D[i*nm+j] = int32(d.At(i, j))
		}
	}
	pos := make([]int, nm) // module index -> current position index
	for i := range pos {
		pos[i] = i
	}

	// Flow edges indexed by module: edge (a,b,n) keeps the canonical name
	// order of its Flow key so asymmetric tables delta-evaluate exactly.
	// Flows naming unknown modules contribute a constant 0, so they are
	// dropped from the edge set, as are self edges.
	nameIdx := moduleIndex(cur)
	type edge struct {
		a, b int // module indices, in flow-key (name) order
		n    int
	}
	var edges []edge
	touching := make([][]int, nm) // module index -> indices into edges
	for k, n := range flow {
		ia, aok := nameIdx[k[0]]
		ib, bok := nameIdx[k[1]]
		if !aok || !bok || ia == ib {
			continue // unknown or self edge: constant contribution
		}
		e := len(edges)
		edges = append(edges, edge{a: ia, b: ib, n: n})
		touching[ia] = append(touching[ia], e)
		touching[ib] = append(touching[ib], e)
	}
	curCost := PlacementCost(cur, flow, d)

	best := cloneLayout(cur)
	bestCost := curCost

	rng := rand.New(rand.NewSource(seed))
	temp := float64(curCost)/10 + 1
	cooling := math.Pow(1.0/(temp+1), 1/float64(iterations+1))
	for it := 0; it < iterations; it++ {
		i, j := rng.Intn(nm), rng.Intn(nm)
		if i == j || !sameFootprint(cur.Modules[i], cur.Modules[j]) {
			continue
		}
		// Delta over edges touching i or j (each counted once). The (i,j)
		// edge itself only changes under an asymmetric table; the general
		// new-minus-old evaluation below covers that too.
		delta := 0
		swapped := func(mi int) int {
			switch mi {
			case i:
				return pos[j]
			case j:
				return pos[i]
			default:
				return pos[mi]
			}
		}
		for _, ei := range touching[i] {
			e := edges[ei]
			delta += e.n * int(D[swapped(e.a)*nm+swapped(e.b)]-D[pos[e.a]*nm+pos[e.b]])
		}
		for _, ei := range touching[j] {
			e := edges[ei]
			if e.a == i || e.b == i {
				continue // already counted via touching[i]
			}
			delta += e.n * int(D[swapped(e.a)*nm+swapped(e.b)]-D[pos[e.a]*nm+pos[e.b]])
		}
		cost := curCost + delta
		accept := cost <= curCost ||
			rng.Float64() < math.Exp(float64(curCost-cost)/temp)
		if accept {
			swapPlaces(cur, i, j)
			pos[i], pos[j] = pos[j], pos[i]
			curCost = cost
			if cost < bestCost {
				bestCost = cost
				best = cloneLayout(cur)
			}
		}
		temp *= cooling
		if temp < 1e-3 {
			temp = 1e-3
		}
	}
	return best, bestCost, nil
}

func sameFootprint(a, b Module) bool {
	return a.Rect.W == b.Rect.W && a.Rect.H == b.Rect.H
}

// swapPlaces exchanges the physical positions (rect and port) of two
// modules, keeping their identities and roles.
func swapPlaces(l *Layout, i, j int) {
	l.Modules[i].Rect, l.Modules[j].Rect = l.Modules[j].Rect, l.Modules[i].Rect
	l.Modules[i].Port, l.Modules[j].Port = l.Modules[j].Port, l.Modules[i].Port
	l.Modules[i].Exit, l.Modules[j].Exit = l.Modules[j].Exit, l.Modules[i].Exit
	l.Modules[i].HasExit, l.Modules[j].HasExit = l.Modules[j].HasExit, l.Modules[i].HasExit
}

// cloneLayout copies a layout deeply enough for swapPlaces: the module
// slice and the stuck set are the clone's own.
func cloneLayout(l *Layout) *Layout {
	return &Layout{
		Width:   l.Width,
		Height:  l.Height,
		Modules: append([]Module(nil), l.Modules...),
		Stuck:   append([]Point(nil), l.Stuck...),
	}
}
