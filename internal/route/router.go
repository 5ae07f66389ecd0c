// Package route provides droplet routing on the electrode array: 4-connected
// breadth-first shortest paths around module obstacles, the primitive behind
// the chip-level transport-cost matrix and electrode-actuation accounting of
// the DAC 2014 droplet-streaming paper (§5).
package route

import (
	"errors"
	"fmt"

	"repro/internal/chip"
)

// Routing errors.
var (
	ErrUnreachable = errors.New("route: no obstacle-free path")
	ErrBlocked     = errors.New("route: endpoint on a blocked electrode")
	ErrOutOfGrid   = errors.New("route: endpoint outside the array")
)

// ErrUnknownPair reports a transport-matrix lookup naming a module the
// matrix was not built over. Such lookups fail loudly rather than read
// distance 0, which would make "nearest module" searches pick unreachable
// modules.
var ErrUnknownPair = errors.New("route: unknown module pair")

// Matrix is the dense inter-module transport-cost matrix of one layout
// geometry: the Fig. 5 matrix with module names interned to dense indices
// and distances stored in a flat row-major []int32, so the hot planning
// loops (mixer-binding search, placement annealing, the cyberphysical
// replans) pay one map lookup per module *name* and O(1) array reads per
// pair afterwards.
//
// A Matrix is immutable after construction and safe for concurrent use; the
// layout-fingerprint cache (MatrixFor) shares one instance across callers.
type Matrix struct {
	names []string
	index map[string]int
	d     []int32 // row-major: d[i*len(names)+j]
}

// Len returns the number of modules the matrix covers.
func (m *Matrix) Len() int { return len(m.names) }

// Names returns the module names in matrix-index order. Callers must not
// mutate the returned slice (matrices are shared via the fingerprint cache).
func (m *Matrix) Names() []string { return m.names }

// IndexOf resolves a module name to its dense matrix index.
func (m *Matrix) IndexOf(name string) (int, bool) {
	i, ok := m.index[name]
	return i, ok
}

// At returns the transport cost between the modules at dense indices i and
// j. It performs no bounds checking beyond the slice's own; resolve indices
// with IndexOf.
func (m *Matrix) At(i, j int) int { return int(m.d[i*len(m.names)+j]) }

// Dist returns the transport cost between two modules by name, failing with
// ErrUnknownPair when either name is not covered — never a silent zero.
func (m *Matrix) Dist(a, b string) (int, error) {
	i, ok := m.index[a]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownPair, a)
	}
	j, ok := m.index[b]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownPair, b)
	}
	return m.At(i, j), nil
}

// Router is the dense routing kernel bound to one layout geometry: a flat
// obstacle grid plus reusable BFS scratch buffers (distance, predecessor and
// queue arrays stamped by generation), so floods, point-to-point distances
// and path walks allocate nothing per call. A Router is NOT safe for
// concurrent use — each goroutine builds its own (construction is O(W·H)).
type Router struct {
	w, h    int
	blocked []bool
	modules []chip.Module

	dist  []int32  // distance per cell, valid where mark == gen
	prev  []int32  // predecessor cell index, valid where mark == gen
	mark  []uint32 // generation stamp per cell
	gen   uint32
	queue []int32
}

// NewRouter builds a routing kernel over the layout's obstacle grid.
func NewRouter(l *chip.Layout) *Router {
	n := l.Width * l.Height
	r := &Router{
		w:       l.Width,
		h:       l.Height,
		blocked: make([]bool, n),
		modules: l.Modules,
		dist:    make([]int32, n),
		prev:    make([]int32, n),
		mark:    make([]uint32, n),
		queue:   make([]int32, 0, n),
	}
	blocked := l.Blocked()
	for y := 0; y < l.Height; y++ {
		for x := 0; x < l.Width; x++ {
			r.blocked[y*l.Width+x] = blocked(chip.Point{X: x, Y: y})
		}
	}
	return r
}

func (r *Router) inGrid(p chip.Point) bool {
	return p.X >= 0 && p.Y >= 0 && p.X < r.w && p.Y < r.h
}

func (r *Router) cell(p chip.Point) int32 { return int32(p.Y*r.w + p.X) }

// checkEndpoint validates one BFS endpoint against the grid and obstacles.
func (r *Router) checkEndpoint(p chip.Point) error {
	if !r.inGrid(p) {
		return fmt.Errorf("%w: (%d,%d)", ErrOutOfGrid, p.X, p.Y)
	}
	if r.blocked[r.cell(p)] {
		return fmt.Errorf("%w: (%d,%d)", ErrBlocked, p.X, p.Y)
	}
	return nil
}

// flood runs a full BFS flood from `from`, filling dist for every reachable
// cell under the current generation stamp. If `to` >= 0, the flood stops as
// soon as that cell is labelled (early exit for point queries) and reports
// whether it was reached; with to < 0 it floods the whole component and
// returns false. Neighbours are visited in the fixed order {+x, -x, +y, -y};
// that order decides ties between equal-length paths, so changing it
// changes paths, wear counts and heat maps (the chip-layer fixtures of
// internal/experiments pin them).
func (r *Router) flood(from chip.Point, to int32, track bool) bool {
	r.gen++
	if r.gen == 0 { // wrapped: invalidate all stamps
		clear(r.mark)
		r.gen = 1
	}
	start := r.cell(from)
	r.mark[start] = r.gen
	r.dist[start] = 0
	if track {
		r.prev[start] = -1
	}
	q := append(r.queue[:0], start)
	for head := 0; head < len(q); head++ {
		cur := q[head]
		cx, cy := int(cur)%r.w, int(cur)/r.w
		d := r.dist[cur] + 1
		// Unrolled 4-neighbourhood in the fixed order: +x, -x, +y, -y.
		if cx+1 < r.w {
			if n := cur + 1; r.mark[n] != r.gen && !r.blocked[n] {
				r.mark[n], r.dist[n] = r.gen, d
				if track {
					r.prev[n] = cur
				}
				if n == to {
					r.queue = q
					return true
				}
				q = append(q, n)
			}
		}
		if cx > 0 {
			if n := cur - 1; r.mark[n] != r.gen && !r.blocked[n] {
				r.mark[n], r.dist[n] = r.gen, d
				if track {
					r.prev[n] = cur
				}
				if n == to {
					r.queue = q
					return true
				}
				q = append(q, n)
			}
		}
		if cy+1 < r.h {
			if n := cur + int32(r.w); r.mark[n] != r.gen && !r.blocked[n] {
				r.mark[n], r.dist[n] = r.gen, d
				if track {
					r.prev[n] = cur
				}
				if n == to {
					r.queue = q
					return true
				}
				q = append(q, n)
			}
		}
		if cy > 0 {
			if n := cur - int32(r.w); r.mark[n] != r.gen && !r.blocked[n] {
				r.mark[n], r.dist[n] = r.gen, d
				if track {
					r.prev[n] = cur
				}
				if n == to {
					r.queue = q
					return true
				}
				q = append(q, n)
			}
		}
	}
	r.queue = q
	return false
}

// Distance returns the shortest obstacle-free transport cost between two
// electrodes, computed directly from the BFS flood with no path
// reconstruction and no per-call allocation.
func (r *Router) Distance(from, to chip.Point) (int, error) {
	if err := r.checkEndpoint(from); err != nil {
		return 0, err
	}
	if err := r.checkEndpoint(to); err != nil {
		return 0, err
	}
	if from == to {
		return 0, nil
	}
	t := r.cell(to)
	if !r.flood(from, t, false) {
		return 0, fmt.Errorf("%w: (%d,%d) to (%d,%d)", ErrUnreachable, from.X, from.Y, to.X, to.Y)
	}
	return int(r.dist[t]), nil
}

// Path returns a minimum-length 4-connected path from `from` to `to`,
// endpoints included, reusing the Router's scratch buffers; only the
// returned slice is allocated. The path cost in electrode actuations is
// len(path)-1 (each move actuates the next electrode).
func (r *Router) Path(from, to chip.Point) ([]chip.Point, error) {
	if err := r.checkEndpoint(from); err != nil {
		return nil, err
	}
	if err := r.checkEndpoint(to); err != nil {
		return nil, err
	}
	if from == to {
		return []chip.Point{from}, nil
	}
	t := r.cell(to)
	if !r.flood(from, t, true) {
		return nil, fmt.Errorf("%w: (%d,%d) to (%d,%d)", ErrUnreachable, from.X, from.Y, to.X, to.Y)
	}
	path := make([]chip.Point, r.dist[t]+1)
	for i, c := len(path)-1, t; i >= 0; i, c = i-1, r.prev[c] {
		path[i] = chip.Point{X: int(c) % r.w, Y: int(c) / r.w}
	}
	return path, nil
}

// Matrix computes the dense inter-module transport-cost matrix: one whole-
// grid flood per module port covers all of its targets, filling the flat
// distance table. The matrix is symmetric because shortest paths are.
func (r *Router) Matrix() (*Matrix, error) {
	n := len(r.modules)
	m := &Matrix{
		names: make([]string, n),
		index: make(map[string]int, n),
		d:     make([]int32, n*n),
	}
	ports := make([]int32, n)
	for i, mod := range r.modules {
		m.names[i] = mod.Name
		m.index[mod.Name] = i
		if !r.inGrid(mod.Port) || r.blocked[r.cell(mod.Port)] {
			return nil, fmt.Errorf("route: port of %s blocked", mod.Name)
		}
		ports[i] = r.cell(mod.Port)
	}
	for i := range r.modules {
		r.flood(r.modules[i].Port, -1, false)
		row := m.d[i*n : (i+1)*n]
		for j, pc := range ports {
			if r.mark[pc] != r.gen {
				return nil, fmt.Errorf("route: %s to %s: %w", m.names[i], m.names[j], ErrUnreachable)
			}
			row[j] = r.dist[pc]
		}
	}
	return m, nil
}
