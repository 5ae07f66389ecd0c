package route

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/chip"
)

// referencePath is an independent path reference: a map-based
// breadth-first search that expands neighbours in the order +X, -X, +Y, -Y
// and keeps the first predecessor found, the tie-breaking the Router's
// scratch-buffer BFS must reproduce. ok is false when either endpoint is
// blocked or the target is cut off.
func referencePath(w, h int, blocked func(chip.Point) bool, from, to chip.Point) ([]chip.Point, bool) {
	if blocked(from) || blocked(to) {
		return nil, false
	}
	prev := map[chip.Point]chip.Point{}
	seen := map[chip.Point]bool{from: true}
	for queue := []chip.Point{from}; len(queue) > 0 && !seen[to]; queue = queue[1:] {
		cur := queue[0]
		for _, d := range []chip.Point{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}} {
			n := chip.Point{X: cur.X + d.X, Y: cur.Y + d.Y}
			if n.X < 0 || n.Y < 0 || n.X >= w || n.Y >= h || seen[n] || blocked(n) {
				continue
			}
			seen[n], prev[n] = true, cur
			queue = append(queue, n)
		}
	}
	if !seen[to] {
		return nil, false
	}
	path := []chip.Point{to}
	for p := to; p != from; {
		p = prev[p]
		path = append([]chip.Point{p}, path...)
	}
	return path, true
}

// legacyCostMatrix is the per-pair reference matrix: one referencePath
// search for every ordered module pair, in the historical map form.
func legacyCostMatrix(l *chip.Layout) (map[[2]string]int, bool) {
	blocked := l.Blocked()
	m := map[[2]string]int{}
	for _, a := range l.Modules {
		for _, b := range l.Modules {
			p, ok := referencePath(l.Width, l.Height, blocked, a.Port, b.Port)
			if !ok {
				return nil, false
			}
			m[[2]string{a.Name, b.Name}] = len(p) - 1
		}
	}
	return m, true
}

// layoutFamily returns a representative set of layout geometries: the Fig. 5
// floorplan, its storage variants, auto-generated lattices and degraded
// (dead-module and stuck-electrode) descendants.
func layoutFamily(t *testing.T) map[string]*chip.Layout {
	t.Helper()
	fam := map[string]*chip.Layout{"pcr": chip.PCRLayout()}
	for _, q := range []int{0, 3, 6} {
		l, err := chip.PCRLayoutWithStorage(q)
		if err != nil {
			t.Fatalf("PCRLayoutWithStorage(%d): %v", q, err)
		}
		fam["pcr-q"+string(rune('0'+q))] = l
	}
	auto, err := chip.AutoLayout(10, 4, 6)
	if err != nil {
		t.Fatalf("AutoLayout: %v", err)
	}
	fam["auto-10-4-6"] = auto
	small, err := chip.AutoLayout(3, 2, 2)
	if err != nil {
		t.Fatalf("AutoLayout small: %v", err)
	}
	fam["auto-3-2-2"] = small
	fam["pcr-dead-m3"] = chip.PCRLayout().Degrade(map[string]bool{"M3": true}, nil)
	fam["pcr-stuck"] = chip.PCRLayout().Degrade(nil, []chip.Point{{X: 6, Y: 6}})
	return fam
}

// TestMatrixMatchesLegacyCostMatrix pins the dense kernel to the per-pair
// reference matrix over the whole layout family, through both its
// index-addressed and its name-addressed lookups.
func TestMatrixMatchesLegacyCostMatrix(t *testing.T) {
	for name, l := range layoutFamily(t) {
		want, ok := legacyCostMatrix(l)
		if !ok {
			t.Fatalf("%s: reference matrix has an unroutable pair", name)
		}
		m, err := NewRouter(l).Matrix()
		if err != nil {
			t.Fatalf("%s: Matrix: %v", name, err)
		}
		if m.Len() != len(l.Modules) {
			t.Fatalf("%s: Matrix.Len() = %d, want %d", name, m.Len(), len(l.Modules))
		}
		for i, a := range l.Modules {
			for j, b := range l.Modules {
				w := want[[2]string{a.Name, b.Name}]
				if got := m.At(i, j); got != w {
					t.Errorf("%s: At(%s,%s) = %d, reference %d", name, a.Name, b.Name, got, w)
				}
				if d, err := m.Dist(a.Name, b.Name); err != nil || d != w {
					t.Errorf("%s: Dist(%s,%s) = %d, %v, reference %d", name, a.Name, b.Name, d, err, w)
				}
			}
		}
	}
}

// TestRouterPathEqualsShortestPath pins path identity: the Router's
// scratch-buffer BFS must reproduce the reference BFS exactly (same
// tie-breaking) for every module pair, or fluidsim heat maps and traces
// would drift.
func TestRouterPathEqualsShortestPath(t *testing.T) {
	for name, l := range layoutFamily(t) {
		r := NewRouter(l)
		blocked := l.Blocked()
		for _, a := range l.Modules {
			for _, b := range l.Modules {
				want, ok := referencePath(l.Width, l.Height, blocked, a.Port, b.Port)
				got, err := r.Path(a.Port, b.Port)
				if ok != (err == nil) {
					t.Fatalf("%s: %s->%s: reference routable=%v, Router err %v", name, a.Name, b.Name, ok, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: %s->%s: Router.Path differs from the reference BFS:\n got %v\nwant %v",
						name, a.Name, b.Name, got, want)
				}
			}
		}
	}
}

// bruteDistance is an independent shortest-path reference: plain Dijkstra
// over a map-based adjacency (uniform weights), sharing no code with the
// production BFS kernels.
func bruteDistance(w, h int, blocked func(chip.Point) bool, from, to chip.Point) (int, bool) {
	if blocked(from) || blocked(to) {
		return 0, false
	}
	dist := map[chip.Point]int{from: 0}
	done := map[chip.Point]bool{}
	for {
		// Extract the unvisited point with minimum tentative distance.
		best, bestD, found := chip.Point{}, 0, false
		for p, d := range dist {
			if done[p] {
				continue
			}
			if !found || d < bestD {
				best, bestD, found = p, d, true
			}
		}
		if !found {
			return 0, false
		}
		if best == to {
			return bestD, true
		}
		done[best] = true
		for _, d := range []chip.Point{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}} {
			n := chip.Point{X: best.X + d.X, Y: best.Y + d.Y}
			if n.X < 0 || n.Y < 0 || n.X >= w || n.Y >= h || blocked(n) {
				continue
			}
			if old, ok := dist[n]; !ok || bestD+1 < old {
				dist[n] = bestD + 1
			}
		}
	}
}

// TestCostAgainstBruteForceDijkstra is the kernel's independent oracle: on
// randomized grids with random stuck electrodes, Router.Distance and
// len(Router.Path)-1 agree with a plain Dijkstra reference, and endpoints
// outside the array, on a stuck electrode or cut off by obstacles fail with
// ErrOutOfGrid, ErrBlocked and ErrUnreachable. One Router serves every
// query on a grid, so its scratch reuse is exercised too.
func TestCostAgainstBruteForceDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(20140601))
	for trial := 0; trial < 120; trial++ {
		w, h := 3+rng.Intn(10), 3+rng.Intn(10)
		density := rng.Float64() * 0.35
		obst := make(map[chip.Point]bool)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if rng.Float64() < density {
					obst[chip.Point{X: x, Y: y}] = true
				}
			}
		}
		blocked := func(p chip.Point) bool { return obst[p] }
		inGrid := func(p chip.Point) bool { return p.X >= 0 && p.Y >= 0 && p.X < w && p.Y < h }
		// One endpoint in eight lies just outside the array.
		pick := func() chip.Point {
			if rng.Intn(8) == 0 {
				return chip.Point{X: []int{-1, w}[rng.Intn(2)], Y: rng.Intn(h)}
			}
			return chip.Point{X: rng.Intn(w), Y: rng.Intn(h)}
		}
		r := gridRouter(w, h, blocked)
		for q := 0; q < 8; q++ {
			from, to := pick(), pick()
			var wantErr error
			want := 0
			switch {
			case !inGrid(from):
				wantErr = ErrOutOfGrid
			case blocked(from):
				wantErr = ErrBlocked
			case !inGrid(to):
				wantErr = ErrOutOfGrid
			case blocked(to):
				wantErr = ErrBlocked
			default:
				d, reachable := bruteDistance(w, h, blocked, from, to)
				if !reachable {
					wantErr = ErrUnreachable
				}
				want = d
			}
			got, errDist := r.Distance(from, to)
			path, errPath := r.Path(from, to)
			if wantErr != nil {
				if !errors.Is(errDist, wantErr) || !errors.Is(errPath, wantErr) {
					t.Fatalf("grid %dx%d %v->%v: Distance err=%v Path err=%v, want %v",
						w, h, from, to, errDist, errPath, wantErr)
				}
				continue
			}
			if errDist != nil || errPath != nil {
				t.Fatalf("grid %dx%d %v->%v: reachable but Distance err=%v Path err=%v",
					w, h, from, to, errDist, errPath)
			}
			if got != want {
				t.Fatalf("grid %dx%d %v->%v: Distance=%d, Dijkstra=%d", w, h, from, to, got, want)
			}
			if len(path)-1 != want {
				t.Fatalf("grid %dx%d %v->%v: path len %d, Dijkstra %d", w, h, from, to, len(path)-1, want)
			}
		}
	}
}

// TestMatrixDistUnknownPair is the regression test for the silent-zero bug:
// a lookup naming a module outside the matrix must fail with ErrUnknownPair,
// never return distance 0.
func TestMatrixDistUnknownPair(t *testing.T) {
	m, err := NewRouter(chip.PCRLayout()).Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Dist("M1", "no-such-module"); !errors.Is(err, ErrUnknownPair) {
		t.Errorf("Dist to unknown module: err = %v, want ErrUnknownPair", err)
	}
	if _, err := m.Dist("ghost", "M1"); !errors.Is(err, ErrUnknownPair) {
		t.Errorf("Dist from unknown module: err = %v, want ErrUnknownPair", err)
	}
	if d, err := m.Dist("M1", "M2"); err != nil || d <= 0 {
		t.Errorf("known pair: d=%d err=%v", d, err)
	}
	if _, ok := m.IndexOf("no-such-module"); ok {
		t.Error("IndexOf resolved an unknown module")
	}
}

// TestMatrixForCachesByGeometry pins the single-build guarantee: repeated
// MatrixFor calls on the same geometry (even via distinct Layout values)
// perform exactly one all-pairs flood; a distinct geometry pays exactly one
// more.
func TestMatrixForCachesByGeometry(t *testing.T) {
	PurgeMatrixCache()
	l := chip.PCRLayout()
	base := MatrixBuildCount()
	m1, err := MatrixFor(l)
	if err != nil {
		t.Fatal(err)
	}
	if got := MatrixBuildCount() - base; got != 1 {
		t.Fatalf("first MatrixFor performed %d builds, want 1", got)
	}
	// A fresh Layout value with identical geometry is a cache hit sharing the
	// same Matrix instance.
	m2, err := MatrixFor(chip.PCRLayout())
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("identical geometries did not share one cached Matrix")
	}
	if got := MatrixBuildCount() - base; got != 1 {
		t.Errorf("cache hit rebuilt the matrix: %d builds", got)
	}
	// A degraded geometry is a distinct entry.
	if _, err := MatrixFor(l.Degrade(map[string]bool{"M3": true}, nil)); err != nil {
		t.Fatal(err)
	}
	if got := MatrixBuildCount() - base; got != 2 {
		t.Errorf("distinct geometry: %d builds, want 2", got)
	}
	// Purging forces a rebuild.
	PurgeMatrixCache()
	if _, err := MatrixFor(l); err != nil {
		t.Fatal(err)
	}
	if got := MatrixBuildCount() - base; got != 3 {
		t.Errorf("after purge: %d builds, want 3", got)
	}
}

// TestFingerprintInjective spot-checks that routing-relevant differences
// change the fingerprint and irrelevant value-copies do not.
func TestFingerprintInjective(t *testing.T) {
	l := chip.PCRLayout()
	fp := Fingerprint(l)
	if Fingerprint(chip.PCRLayout()) != fp {
		t.Error("identical layouts fingerprint differently")
	}
	if Fingerprint(l.Degrade(map[string]bool{"M1": true}, nil)) == fp {
		t.Error("dead module did not change the fingerprint")
	}
	if Fingerprint(l.Degrade(nil, []chip.Point{{X: 6, Y: 6}})) == fp {
		t.Error("stuck electrode did not change the fingerprint")
	}
	wider := *l
	wider.Width++
	if Fingerprint(&wider) == fp {
		t.Error("width change did not change the fingerprint")
	}
	moved := *l
	moved.Modules = append([]chip.Module(nil), l.Modules...)
	moved.Modules[0].Port.X++
	if Fingerprint(&moved) == fp {
		t.Error("port move did not change the fingerprint")
	}
}

// TestMatrixForConcurrent hammers the cache from many goroutines; run with
// -race to verify the locking discipline.
func TestMatrixForConcurrent(t *testing.T) {
	PurgeMatrixCache()
	l := chip.PCRLayout()
	degraded := l.Degrade(map[string]bool{"M2": true}, nil)
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			target := l
			if i%2 == 1 {
				target = degraded
			}
			_, err := MatrixFor(target)
			done <- err
		}(i)
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
