package route

import (
	"errors"
	"testing"

	"repro/internal/chip"
)

// TestCostMatrixWalledOffModule walls a module's port behind stuck
// electrodes: the matrix build must return ErrUnreachable, not hang or panic.
func TestCostMatrixWalledOffModule(t *testing.T) {
	l := chip.PCRLayout()
	m2, ok := l.Module("M2")
	if !ok {
		t.Fatal("PCR layout has no M2")
	}
	p := m2.Port
	walled := l.Degrade(nil, []chip.Point{
		{X: p.X - 1, Y: p.Y}, {X: p.X + 1, Y: p.Y},
		{X: p.X, Y: p.Y - 1}, {X: p.X, Y: p.Y + 1},
	})
	if _, err := NewRouter(walled).Matrix(); !errors.Is(err, ErrUnreachable) {
		t.Errorf("Matrix: err = %v, want ErrUnreachable", err)
	}
}

// TestCostMatrixStuckPort sticks the electrode under a port itself.
func TestCostMatrixStuckPort(t *testing.T) {
	l := chip.PCRLayout()
	w1, ok := l.Module("W1")
	if !ok {
		t.Fatal("PCR layout has no W1")
	}
	if _, err := NewRouter(l.Degrade(nil, []chip.Point{w1.Port})).Matrix(); err == nil {
		t.Error("Matrix with a stuck port succeeded")
	}
}

// TestStuckCellsBlockRouting folds Layout.Stuck into the obstacle oracle:
// paths must detour around stuck electrodes, lengthening the route.
func TestStuckCellsBlockRouting(t *testing.T) {
	l := chip.PCRLayout()
	base, err := NewRouter(l).Matrix()
	if err != nil {
		t.Fatal(err)
	}
	// Block the channel intersection at (6,6); some route must lengthen and
	// none may shorten.
	stuck := l.Degrade(nil, []chip.Point{{X: 6, Y: 6}})
	if !stuck.Blocked()(chip.Point{X: 6, Y: 6}) {
		t.Fatal("Degrade did not mark the electrode stuck")
	}
	got, err := NewRouter(stuck).Matrix()
	if err != nil {
		t.Fatal(err)
	}
	longer := false
	for i, a := range l.Modules {
		for j, b := range l.Modules {
			if d := got.At(i, j); d < base.At(i, j) {
				t.Errorf("%s->%s shortened: %d < %d", a.Name, b.Name, d, base.At(i, j))
			} else if d > base.At(i, j) {
				longer = true
			}
		}
	}
	if !longer {
		t.Error("blocking a channel cell lengthened no route; pick a busier cell")
	}
}

// TestDegradeDropsModules removes a mixer from the roster.
func TestDegradeDropsModules(t *testing.T) {
	l := chip.PCRLayout()
	d := l.Degrade(map[string]bool{"M3": true}, nil)
	if _, ok := d.Module("M3"); ok {
		t.Error("Degrade kept the dropped module")
	}
	if len(d.OfKind(chip.Mixer)) != 2 {
		t.Errorf("mixers after drop = %d, want 2", len(d.OfKind(chip.Mixer)))
	}
	if len(l.OfKind(chip.Mixer)) != 3 {
		t.Error("Degrade mutated the receiver")
	}
	if _, err := NewRouter(d).Matrix(); err != nil {
		t.Errorf("degraded layout unroutable: %v", err)
	}
}
