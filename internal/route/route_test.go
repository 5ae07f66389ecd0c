package route

import (
	"errors"
	"testing"

	"repro/internal/chip"
)

func noObstacles(chip.Point) bool { return false }

// gridRouter builds a Router over a bare w×h obstacle grid: a module-free
// layout whose blocked cells are stuck electrodes.
func gridRouter(w, h int, blocked func(chip.Point) bool) *Router {
	l := &chip.Layout{Width: w, Height: h}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if p := (chip.Point{X: x, Y: y}); blocked(p) {
				l.Stuck = append(l.Stuck, p)
			}
		}
	}
	return NewRouter(l)
}

func TestStraightLine(t *testing.T) {
	r := gridRouter(10, 10, noObstacles)
	p, err := r.Path(chip.Point{X: 0, Y: 0}, chip.Point{X: 5, Y: 0})
	if err != nil {
		t.Fatalf("Path: %v", err)
	}
	if len(p) != 6 {
		t.Errorf("path length = %d, want 6", len(p))
	}
	if c, _ := r.Distance(chip.Point{X: 0, Y: 0}, chip.Point{X: 5, Y: 0}); c != 5 {
		t.Errorf("cost = %d, want 5", c)
	}
}

func TestManhattanWithoutObstacles(t *testing.T) {
	c, err := gridRouter(20, 20, noObstacles).Distance(chip.Point{X: 2, Y: 3}, chip.Point{X: 10, Y: 9})
	if err != nil {
		t.Fatalf("Distance: %v", err)
	}
	if c != 8+6 {
		t.Errorf("cost = %d, want 14 (Manhattan)", c)
	}
}

func TestSamePoint(t *testing.T) {
	r := gridRouter(5, 5, noObstacles)
	p, err := r.Path(chip.Point{X: 2, Y: 2}, chip.Point{X: 2, Y: 2})
	if err != nil || len(p) != 1 {
		t.Errorf("same-point path = %v, %v", p, err)
	}
	if c, err := r.Distance(chip.Point{X: 2, Y: 2}, chip.Point{X: 2, Y: 2}); err != nil || c != 0 {
		t.Errorf("same-point cost = %d, %v", c, err)
	}
}

func TestDetourAroundWall(t *testing.T) {
	// Vertical wall at x=2 with a gap at y=4.
	r := gridRouter(6, 6, func(p chip.Point) bool { return p.X == 2 && p.Y != 4 })
	c, err := r.Distance(chip.Point{X: 0, Y: 0}, chip.Point{X: 4, Y: 0})
	if err != nil {
		t.Fatalf("Distance: %v", err)
	}
	// Down to the gap (4), across (4), back up (4): 12.
	if c != 12 {
		t.Errorf("detour cost = %d, want 12", c)
	}
	if p, err := r.Path(chip.Point{X: 0, Y: 0}, chip.Point{X: 4, Y: 0}); err != nil || len(p) != 13 {
		t.Errorf("detour path has %d cells (%v), want 13", len(p), err)
	}
}

func TestUnreachable(t *testing.T) {
	r := gridRouter(6, 6, func(p chip.Point) bool { return p.X == 2 })
	if _, err := r.Path(chip.Point{X: 0, Y: 0}, chip.Point{X: 4, Y: 0}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("Path: err = %v, want ErrUnreachable", err)
	}
	if _, err := r.Distance(chip.Point{X: 0, Y: 0}, chip.Point{X: 4, Y: 0}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("Distance: err = %v, want ErrUnreachable", err)
	}
}

func TestEndpointErrors(t *testing.T) {
	r := gridRouter(5, 5, func(p chip.Point) bool { return p == chip.Point{X: 1, Y: 1} })
	for _, c := range []struct {
		from, to chip.Point
		want     error
	}{
		{chip.Point{X: -1, Y: 0}, chip.Point{X: 1, Y: 0}, ErrOutOfGrid},
		{chip.Point{X: 0, Y: 0}, chip.Point{X: 0, Y: 5}, ErrOutOfGrid},
		{chip.Point{X: 0, Y: 0}, chip.Point{X: 1, Y: 1}, ErrBlocked},
		{chip.Point{X: 1, Y: 1}, chip.Point{X: 0, Y: 0}, ErrBlocked},
	} {
		if _, err := r.Path(c.from, c.to); !errors.Is(err, c.want) {
			t.Errorf("Path %v->%v: err = %v, want %v", c.from, c.to, err, c.want)
		}
		if _, err := r.Distance(c.from, c.to); !errors.Is(err, c.want) {
			t.Errorf("Distance %v->%v: err = %v, want %v", c.from, c.to, err, c.want)
		}
	}
}

func TestPathIsConnectedAndFree(t *testing.T) {
	l := chip.PCRLayout()
	blocked := l.Blocked()
	from := l.Modules[0].Port
	to := l.Modules[len(l.Modules)-1].Port
	p, err := NewRouter(l).Path(from, to)
	if err != nil {
		t.Fatalf("Path: %v", err)
	}
	for i, pt := range p {
		if blocked(pt) {
			t.Fatalf("path crosses obstacle at %v", pt)
		}
		if i > 0 {
			dx, dy := pt.X-p[i-1].X, pt.Y-p[i-1].Y
			if dx*dx+dy*dy != 1 {
				t.Fatalf("path not 4-connected at step %d", i)
			}
		}
	}
}

func TestCostMatrixPCR(t *testing.T) {
	l := chip.PCRLayout()
	m, err := NewRouter(l).Matrix()
	if err != nil {
		t.Fatalf("Matrix: %v", err)
	}
	for i, a := range l.Modules {
		if m.At(i, i) != 0 {
			t.Errorf("self-cost of %s nonzero", a.Name)
		}
		for j, b := range l.Modules {
			if m.At(i, j) != m.At(j, i) {
				t.Errorf("cost matrix asymmetric for %s/%s", a.Name, b.Name)
			}
			if i != j && m.At(i, j) <= 0 {
				t.Errorf("cost %s->%s = %d, want positive", a.Name, b.Name, m.At(i, j))
			}
			// Name-addressed lookups agree with index-addressed ones.
			if d, err := m.Dist(a.Name, b.Name); err != nil || d != m.At(i, j) {
				t.Errorf("Dist(%s,%s) = %d, %v; At = %d", a.Name, b.Name, d, err, m.At(i, j))
			}
		}
	}
	// Triangle inequality through free routing.
	n := m.Len()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			for c := 0; c < n; c++ {
				ab, bc, ac := m.At(a, b), m.At(b, c), m.At(a, c)
				// Paths may need to reach b's port, so allow the detour via
				// the port: strict triangle inequality need not hold, but a
				// gross violation signals a routing bug.
				if ac > ab+bc+4 {
					t.Errorf("wild triangle violation %s-%s-%s: %d > %d+%d",
						l.Modules[a].Name, l.Modules[b].Name, l.Modules[c].Name, ac, ab, bc)
				}
			}
		}
	}
}
