package route

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/chip"
	"repro/internal/lru"
	"repro/internal/obs"
)

// The layout-fingerprint matrix cache: every distinct layout geometry pays
// for exactly one all-pairs flood per process (until evicted), no matter how
// many times the mixer-binding search, the cyberphysical runtime's degraded
// replans, the placer or the wear simulator ask for it. The key is an exact
// textual encoding of the routing-relevant geometry — dimensions, module
// names/rects/ports in layout order, and the sorted stuck set — so two
// layouts share an entry if and only if they route identically and intern
// module names identically. Sibling of internal/plancache, which plays the
// same role one layer up for (forest, schedule) plans.

// Fingerprint returns the exact geometry key of a layout: unequal layouts
// never collide (the encoding is injective over routing-relevant state).
func Fingerprint(l *chip.Layout) string {
	var b strings.Builder
	b.Grow(32 * (len(l.Modules) + len(l.Stuck) + 1))
	num := func(v int) {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte(',')
	}
	num(l.Width)
	num(l.Height)
	for _, m := range l.Modules {
		b.WriteByte('|')
		b.WriteString(m.Name)
		b.WriteByte(';')
		num(m.Rect.X)
		num(m.Rect.Y)
		num(m.Rect.W)
		num(m.Rect.H)
		num(m.Port.X)
		num(m.Port.Y)
	}
	if len(l.Stuck) > 0 {
		cells := make([]int, len(l.Stuck))
		for i, p := range l.Stuck {
			cells[i] = p.Y*l.Width + p.X
		}
		sort.Ints(cells)
		b.WriteByte('!')
		for _, c := range cells {
			num(c)
		}
	}
	return b.String()
}

// matrixCacheCapacity bounds the process-wide matrix store. Real workloads
// touch a handful of geometries (the pristine floorplan plus a few degraded
// variants per fault scenario); annealing never hits the cache at all (its
// swaps reuse one matrix by construction), so a small bound holds every
// live geometry while capping retention at a few hundred kilobytes.
const matrixCacheCapacity = 128

var (
	matricesMu sync.Mutex // guards matrices
	matrices   = lru.New[string, *Matrix](matrixCacheCapacity)

	// matrixBuilds counts full all-pairs matrix computations (cache misses).
	matrixBuilds atomic.Int64
)

// MatrixBuildCount returns the number of from-scratch cost-matrix builds
// performed so far in this process. It exists so performance tests can
// assert that hot paths (the mixer-binding search in internal/exec, the
// degraded replans in internal/runtime) compute each distinct layout
// geometry exactly once; compare deltas, not absolutes (mirrors
// forest.BuildCount).
func MatrixBuildCount() int64 { return matrixBuilds.Load() }

// PurgeMatrixCache drops every cached matrix (the build counter is not
// reset). Tests use it to measure cold-path builds.
func PurgeMatrixCache() {
	matricesMu.Lock()
	matrices.Purge()
	matricesMu.Unlock()
}

// MatrixFor returns the dense transport-cost matrix of the layout, serving
// repeated geometries from the fingerprint cache. The returned Matrix is
// shared and immutable; errors (blocked or unreachable ports) are not
// cached. Safe for concurrent use.
func MatrixFor(l *chip.Layout) (*Matrix, error) {
	key := Fingerprint(l)
	matricesMu.Lock()
	hit, ok := matrices.Get(key)
	matricesMu.Unlock()
	if ok {
		obs.Inc("route.matrix_hits")
		return hit, nil
	}

	// Build outside the lock: concurrent callers missing on the same key may
	// both build (matrices are deterministic, either result is correct).
	stop := obs.StartTimer("route.matrix_build_ms")
	m, err := NewRouter(l).Matrix()
	stop()
	if err != nil {
		return nil, err
	}
	matrixBuilds.Add(1)
	obs.Inc("route.matrix_builds")

	matricesMu.Lock()
	if incumbent, ok := matrices.Get(key); ok {
		// Lost the race; keep the incumbent so all callers share one value.
		m = incumbent
	} else {
		matrices.Add(key, m)
	}
	matricesMu.Unlock()
	return m, nil
}
