package chip

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// manhattan is a cheap dense cost model for placement tests: port-to-port
// Manhattan distance in module order, ignoring obstacles.
type manhattan []Point

func manhattanOf(l *Layout) manhattan {
	ports := make(manhattan, len(l.Modules))
	for i, m := range l.Modules {
		ports[i] = m.Port
	}
	return ports
}

func (m manhattan) Len() int { return len(m) }

func (m manhattan) At(i, j int) int {
	dx, dy := m[i].X-m[j].X, m[i].Y-m[j].Y
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// countingDistances counts the At lookups made on a distance table.
type countingDistances struct {
	Distances
	calls int
}

func (c *countingDistances) At(i, j int) int {
	c.calls++
	return c.Distances.At(i, j)
}

// randomFlow builds a deterministic pseudo-random traffic matrix over the
// layout's modules.
func randomFlow(l *Layout, seed int64) Flow {
	rng := rand.New(rand.NewSource(seed))
	f := Flow{}
	for i := 0; i < 3*len(l.Modules); i++ {
		a := l.Modules[rng.Intn(len(l.Modules))].Name
		b := l.Modules[rng.Intn(len(l.Modules))].Name
		f.Add(a, b, 1+rng.Intn(20))
	}
	return f
}

func TestFlowAddCanonical(t *testing.T) {
	f := Flow{}
	f.Add("B", "A", 2)
	f.Add("A", "B", 3)
	if len(f) != 1 {
		t.Fatalf("flow has %d keys, want 1", len(f))
	}
	if f[[2]string{"A", "B"}] != 5 {
		t.Errorf("accumulated %d, want 5", f[[2]string{"A", "B"}])
	}
}

func TestPlacementCost(t *testing.T) {
	l := &Layout{Modules: []Module{{Name: "A", Port: Point{X: 0, Y: 0}}, {Name: "B", Port: Point{X: 3, Y: 4}}}}
	f := Flow{}
	f.Add("A", "B", 2)
	f.Add("A", "ghost", 5) // names a module outside the layout: costs 0
	if got := PlacementCost(l, f, manhattanOf(l)); got != 14 {
		t.Errorf("PlacementCost = %d, want 14", got)
	}
}

func TestOptimizePlacementImprovesSeparatedPair(t *testing.T) {
	// Two mixers with heavy mutual traffic placed at opposite corners, with
	// two idle storage cells adjacent to each other: a single swap brings
	// the mixers together.
	l, err := NewLatticeLayout(3, 3, []Slot{
		{0, 0, Mixer, "M1", -1},
		{2, 2, Mixer, "M2", -1},
		{1, 0, Mixer, "S1", -1},
		{0, 1, Mixer, "S2", -1},
	})
	if err != nil {
		t.Fatalf("NewLatticeLayout: %v", err)
	}
	flow := Flow{}
	flow.Add("M1", "M2", 100)
	startCost := PlacementCost(l, flow, manhattanOf(l))
	opt, optCost, err := OptimizePlacement(l, flow, manhattanOf(l), 500, 7)
	if err != nil {
		t.Fatalf("OptimizePlacement: %v", err)
	}
	if optCost >= startCost {
		t.Errorf("no improvement: %d -> %d", startCost, optCost)
	}
	if err := opt.Validate(); err != nil {
		t.Errorf("optimized layout invalid: %v", err)
	}
	// Original layout untouched.
	if m, _ := l.Module("M1"); m.Rect != SlotRect(0, 0) {
		t.Error("OptimizePlacement mutated its input")
	}
}

func TestOptimizePlacementKeepsRoles(t *testing.T) {
	l := PCRLayout().Degrade(nil, []Point{{X: 6, Y: 6}})
	flow := Flow{}
	flow.Add("R1", "M1", 10)
	opt, _, err := OptimizePlacement(l, flow, manhattanOf(l), 200, 3)
	if err != nil {
		t.Fatalf("OptimizePlacement: %v", err)
	}
	// Census and fluid bindings are preserved; only positions move.
	for _, m := range l.Modules {
		om, ok := opt.Module(m.Name)
		if !ok {
			t.Fatalf("module %s vanished", m.Name)
		}
		if om.Kind != m.Kind || om.Fluid != m.Fluid {
			t.Errorf("module %s changed role: %v/%d -> %v/%d", m.Name, m.Kind, m.Fluid, om.Kind, om.Fluid)
		}
	}
	// Stuck electrodes stay where they are: they belong to the chip, not
	// to any module.
	if len(opt.Stuck) != 1 || opt.Stuck[0] != (Point{X: 6, Y: 6}) {
		t.Errorf("stuck set %v, want [(6,6)]", opt.Stuck)
	}
}

// TestOptimizePlacementMatrixError hands the annealer distance tables that
// do not cover the layout's modules: a typed error, never an index panic.
func TestOptimizePlacementMatrixError(t *testing.T) {
	l := PCRLayout()
	for _, d := range []Distances{manhattanOf(l)[:3], append(manhattanOf(l), Point{}), manhattan{}} {
		if _, _, err := OptimizePlacement(l, randomFlow(l, 1), d, 10, 1); !errors.Is(err, ErrDistancesSize) {
			t.Errorf("%d-entry table for %d modules: err = %v, want ErrDistancesSize", d.Len(), len(l.Modules), err)
		}
	}
}

// TestOptimizePlacementNothingToSwap covers layouts with fewer than two
// modules: there is no swap to try, so the layout comes back unchanged at
// cost 0 for any iteration count.
func TestOptimizePlacementNothingToSwap(t *testing.T) {
	one := &Layout{Width: 4, Height: 4, Modules: []Module{{Name: "M1", Rect: Rect{X: 1, Y: 1, W: 2, H: 2}, Port: Point{X: 0, Y: 1}}}}
	for name, l := range map[string]*Layout{"empty": {Width: 4, Height: 4}, "one module": one} {
		flow := Flow{}
		flow.Add("M1", "M1", 3)
		flow.Add("M1", "ghost", 2)
		opt, cost, err := OptimizePlacement(l, flow, manhattanOf(l), 100, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cost != 0 || opt.Width != l.Width || opt.Height != l.Height || len(opt.Modules) != len(l.Modules) {
			t.Errorf("%s: got %+v at cost %d, want the input at cost 0", name, opt, cost)
		}
		if len(l.Modules) == 1 && opt.Modules[0] != l.Modules[0] {
			t.Errorf("%s: module moved to %+v", name, opt.Modules[0])
		}
	}
}

// fullRecomputeAnneal is the reference annealer: the same seeded swap
// schedule as OptimizePlacement, but every candidate swap is applied to the
// layout and priced from scratch with a distance table rebuilt for the
// swapped layout. It needs no geometric invariant, so it checks the
// incremental delta evaluation independently.
func fullRecomputeAnneal(l *Layout, flow Flow, table func(*Layout) (Distances, error), iterations int, seed int64) (*Layout, int, error) {
	cost := func(l *Layout) (int, error) {
		d, err := table(l)
		if err != nil {
			return 0, err
		}
		return PlacementCost(l, flow, d), nil
	}
	cur := cloneLayout(l)
	curCost, err := cost(cur)
	if err != nil {
		return nil, 0, err
	}
	best, bestCost := cloneLayout(cur), curCost
	rng := rand.New(rand.NewSource(seed))
	temp := float64(curCost)/10 + 1
	cooling := math.Pow(1.0/(temp+1), 1/float64(iterations+1))
	for it := 0; it < iterations; it++ {
		i, j := rng.Intn(len(cur.Modules)), rng.Intn(len(cur.Modules))
		if i == j || !sameFootprint(cur.Modules[i], cur.Modules[j]) {
			continue
		}
		swapPlaces(cur, i, j)
		c, err := cost(cur)
		if err != nil {
			return nil, 0, err
		}
		if c <= curCost || rng.Float64() < math.Exp(float64(curCost-c)/temp) {
			curCost = c
			if c < bestCost {
				best, bestCost = cloneLayout(cur), c
			}
		} else {
			swapPlaces(cur, i, j)
		}
		temp = math.Max(temp*cooling, 1e-3)
	}
	return best, bestCost, nil
}

// TestOptimizePlacementMatchesFull is the determinism golden: for fixed
// seeds, the incremental delta-evaluating annealer must reproduce the
// full-recompute reference bit for bit — identical final cost AND identical
// final layout — across layouts, flows with and without edges naming
// unknown modules, seeds and iteration counts.
func TestOptimizePlacementMatchesFull(t *testing.T) {
	auto, err := AutoLayout(10, 4, 6)
	if err != nil {
		t.Fatalf("AutoLayout: %v", err)
	}
	table := func(l *Layout) (Distances, error) { return manhattanOf(l), nil }
	for name, l := range map[string]*Layout{"pcr": PCRLayout(), "auto": auto} {
		for _, withUnknown := range []bool{false, true} {
			for _, seed := range []int64{1, 7, 42} {
				for _, iters := range []int{0, 25, 400} {
					flow := randomFlow(l, seed*13+int64(iters))
					if withUnknown {
						flow.Add(l.Modules[0].Name, "phantom", 50)
						flow.Add("ghost", "wraith", 7)
					}
					wantL, wantC, err := fullRecomputeAnneal(l, flow, table, iters, seed)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					gotL, gotC, err := OptimizePlacement(l, flow, manhattanOf(l), iters, seed)
					if err != nil {
						t.Fatalf("%s: incremental: %v", name, err)
					}
					if gotC != wantC {
						t.Errorf("%s seed=%d iters=%d unknown=%v: cost %d, reference %d",
							name, seed, iters, withUnknown, gotC, wantC)
					}
					if !reflect.DeepEqual(gotL, wantL) {
						t.Errorf("%s seed=%d iters=%d unknown=%v: final layout differs from the reference annealer",
							name, seed, iters, withUnknown)
					}
				}
			}
		}
	}
}

// TestOptimizePlacementSingleMatrixEvaluation pins the incremental
// invariant: same-footprint swaps leave the blocked set and the set of port
// positions unchanged, so the annealer reads its distance table a fixed
// number of times up front and never again per step.
func TestOptimizePlacementSingleMatrixEvaluation(t *testing.T) {
	l := PCRLayout()
	flow := randomFlow(l, 3)
	var calls [2]int
	for k, iters := range []int{0, 500} {
		d := &countingDistances{Distances: manhattanOf(l)}
		if _, _, err := OptimizePlacement(l, flow, d, iters, 9); err != nil {
			t.Fatal(err)
		}
		calls[k] = d.calls
	}
	if calls[0] != calls[1] {
		t.Errorf("distance table read %d times at 0 iterations, %d at 500", calls[0], calls[1])
	}
}

func TestOptimizePlacementDeterministic(t *testing.T) {
	l := PCRLayout()
	flow := Flow{}
	flow.Add("R7", "M1", 5)
	flow.Add("M1", "M3", 9)
	_, c1, err := OptimizePlacement(l, flow, manhattanOf(l), 300, 42)
	if err != nil {
		t.Fatalf("OptimizePlacement: %v", err)
	}
	_, c2, err := OptimizePlacement(l, flow, manhattanOf(l), 300, 42)
	if err != nil {
		t.Fatalf("OptimizePlacement: %v", err)
	}
	if c1 != c2 {
		t.Errorf("same seed, different costs: %d vs %d", c1, c2)
	}
}

func TestSameFootprint(t *testing.T) {
	a := Module{Rect: Rect{W: 2, H: 2}}
	b := Module{Rect: Rect{W: 2, H: 2}}
	c := Module{Rect: Rect{W: 1, H: 1}}
	if !sameFootprint(a, b) || sameFootprint(a, c) {
		t.Error("sameFootprint mismatch")
	}
}

func TestSlotGeometry(t *testing.T) {
	r := SlotRect(2, 1)
	if r.X != 7 || r.Y != 4 || r.W != 2 || r.H != 2 {
		t.Errorf("SlotRect(2,1) = %+v", r)
	}
	p := SlotPort(2, 1)
	if p.X != 6 || p.Y != 4 {
		t.Errorf("SlotPort(2,1) = %+v", p)
	}
	w, h := LatticeSize(5, 4)
	if w != 16 || h != 13 {
		t.Errorf("LatticeSize = %dx%d", w, h)
	}
}

func TestNewLatticeLayoutErrors(t *testing.T) {
	if _, err := NewLatticeLayout(2, 2, []Slot{{5, 0, Mixer, "M1", -1}}); err == nil {
		t.Error("out-of-lattice slot accepted")
	}
	if _, err := NewLatticeLayout(2, 2, []Slot{
		{0, 0, Mixer, "M1", -1},
		{0, 0, Mixer, "M2", -1},
	}); err == nil {
		t.Error("double-booked slot accepted")
	}
}
