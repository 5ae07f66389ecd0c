package exec

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/chip"
	"repro/internal/route"
	"repro/internal/sched"
)

// bruteForceOptimized is the legacy mixer-binding search: enumerate every
// permutation of logical-onto-physical mixers in lexicographic order and keep
// the first strict minimum. The branch-and-bound ExecuteOptimized must
// reproduce its winner exactly.
func bruteForceOptimized(s *sched.Schedule, l *chip.Layout) (*Plan, error) {
	mixers := l.OfKind(chip.Mixer)
	m, err := route.MatrixFor(l)
	if err != nil {
		return nil, err
	}
	var best *Plan
	perm := make([]int, 0, s.Mixers)
	used := make([]bool, len(mixers))
	var rec func() error
	rec = func() error {
		if len(perm) == s.Mixers {
			p, err := executeBound(s, l, perm, m)
			if err != nil {
				return err
			}
			if best == nil || p.TotalCost < best.TotalCost {
				best = p
			}
			return nil
		}
		for i := range used {
			if used[i] {
				continue
			}
			used[i] = true
			perm = append(perm, i)
			if err := rec(); err != nil {
				return err
			}
			perm = perm[:len(perm)-1]
			used[i] = false
		}
		return nil
	}
	if err := rec(); err != nil {
		return nil, err
	}
	return best, nil
}

// TestExecuteOptimizedMatchesBruteForce is the golden equivalence test: the
// pruned parallel branch-and-bound returns exactly the plan the exhaustive
// permutation enumeration returns — same cost, same moves, same storage
// cells, same flow — including the tie-break to the first minimal binding.
func TestExecuteOptimizedMatchesBruteForce(t *testing.T) {
	cases := []struct {
		name    string
		demand  int
		mixers  int
		fluids  int
		storage int
	}{
		{"pcr-20-3", 20, 3, 0, -1}, // Fig. 5 floorplan
		{"pcr-8-2", 8, 2, 0, -1},
		{"auto-7-3-extra", 16, 3, 7, 8}, // more physical than logical mixers
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := pcrSchedule(t, tc.demand, tc.mixers)
			var l *chip.Layout
			if tc.fluids == 0 {
				l = chip.PCRLayout()
			} else {
				var err error
				l, err = chip.AutoLayout(tc.fluids, tc.mixers+2, tc.storage)
				if err != nil {
					t.Fatalf("AutoLayout: %v", err)
				}
			}
			want, err := bruteForceOptimized(s, l)
			if err != nil {
				t.Fatalf("brute force: %v", err)
			}
			got, err := ExecuteOptimized(s, l)
			if err != nil {
				t.Fatalf("ExecuteOptimized: %v", err)
			}
			if got.TotalCost != want.TotalCost {
				t.Fatalf("cost %d, brute force %d", got.TotalCost, want.TotalCost)
			}
			if !reflect.DeepEqual(got.Moves, want.Moves) {
				t.Error("move list differs from the brute-force winner")
			}
			if !reflect.DeepEqual(got.StorageCells, want.StorageCells) {
				t.Error("storage-cell assignment differs from the brute-force winner")
			}
			if !reflect.DeepEqual(got.Flow, want.Flow) {
				t.Error("flow matrix differs from the brute-force winner")
			}
		})
	}
}

// TestExecuteOptimizedSingleMatrixBuild pins the acceptance criterion: the
// whole binding search — every permutation it explores — performs exactly one
// cost-matrix computation per distinct layout geometry.
func TestExecuteOptimizedSingleMatrixBuild(t *testing.T) {
	s := pcrSchedule(t, 20, 3)
	l := chip.PCRLayout()
	route.PurgeMatrixCache()
	base := route.MatrixBuildCount()
	if _, err := ExecuteOptimized(s, l); err != nil {
		t.Fatal(err)
	}
	if got := route.MatrixBuildCount() - base; got != 1 {
		t.Errorf("ExecuteOptimized performed %d matrix builds, want exactly 1", got)
	}
	// A second search on the same geometry is a pure cache hit.
	if _, err := ExecuteOptimized(s, l); err != nil {
		t.Fatal(err)
	}
	if got := route.MatrixBuildCount() - base; got != 1 {
		t.Errorf("repeat search rebuilt the matrix: %d builds total", got)
	}
	// Execute (identity binding) shares the same cached matrix.
	if _, err := Execute(s, l); err != nil {
		t.Fatal(err)
	}
	if got := route.MatrixBuildCount() - base; got != 1 {
		t.Errorf("Execute rebuilt the matrix: %d builds total", got)
	}
}

// fullRecomputeAnneal is the reference annealer on the routed cost model:
// the same seeded swap schedule as chip.OptimizePlacement, but every
// candidate swap is applied to the layout and priced with a transport-cost
// matrix flooded afresh for the swapped layout.
func fullRecomputeAnneal(l *chip.Layout, flow chip.Flow, iterations int, seed int64) (*chip.Layout, int, error) {
	clone := func(l *chip.Layout) *chip.Layout {
		return &chip.Layout{Width: l.Width, Height: l.Height,
			Modules: append([]chip.Module(nil), l.Modules...), Stuck: append([]chip.Point(nil), l.Stuck...)}
	}
	swap := func(l *chip.Layout, i, j int) {
		a, b := &l.Modules[i], &l.Modules[j]
		a.Rect, b.Rect = b.Rect, a.Rect
		a.Port, b.Port = b.Port, a.Port
		a.Exit, b.Exit = b.Exit, a.Exit
		a.HasExit, b.HasExit = b.HasExit, a.HasExit
	}
	cost := func(l *chip.Layout) (int, error) {
		m, err := route.NewRouter(l).Matrix()
		if err != nil {
			return 0, err
		}
		return chip.PlacementCost(l, flow, m), nil
	}
	cur := clone(l)
	curCost, err := cost(cur)
	if err != nil {
		return nil, 0, err
	}
	best, bestCost := clone(cur), curCost
	rng := rand.New(rand.NewSource(seed))
	temp := float64(curCost)/10 + 1
	cooling := math.Pow(1.0/(temp+1), 1/float64(iterations+1))
	for it := 0; it < iterations; it++ {
		i, j := rng.Intn(len(cur.Modules)), rng.Intn(len(cur.Modules))
		if i == j || cur.Modules[i].Rect.W != cur.Modules[j].Rect.W || cur.Modules[i].Rect.H != cur.Modules[j].Rect.H {
			continue
		}
		swap(cur, i, j)
		c, err := cost(cur)
		if err != nil {
			return nil, 0, err
		}
		if c <= curCost || rng.Float64() < math.Exp(float64(curCost-c)/temp) {
			curCost = c
			if c < bestCost {
				best, bestCost = clone(cur), c
			}
		} else {
			swap(cur, i, j)
		}
		temp = math.Max(temp*cooling, 1e-3)
	}
	return best, bestCost, nil
}

// TestOptimizePlacementMatchesFullOnRouteMatrix runs the incremental-vs-
// full-recompute annealer equivalence on the real geometric matrix
// (obstacle-aware BFS distances) and a real plan's traffic.
func TestOptimizePlacementMatchesFullOnRouteMatrix(t *testing.T) {
	s := pcrSchedule(t, 20, 3)
	l := chip.PCRLayout()
	plan, err := Execute(s, l)
	if err != nil {
		t.Fatal(err)
	}
	m, err := route.MatrixFor(l)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 5} {
		wantL, wantC, err := fullRecomputeAnneal(l, plan.Flow, 300, seed)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		gotL, gotC, err := chip.OptimizePlacement(l, plan.Flow, m, 300, seed)
		if err != nil {
			t.Fatalf("incremental: %v", err)
		}
		if gotC != wantC || !reflect.DeepEqual(gotL, wantL) {
			t.Errorf("seed %d: incremental annealer diverged from the full-recompute reference on the routed matrix (cost %d vs %d)",
				seed, gotC, wantC)
		}
	}
}
