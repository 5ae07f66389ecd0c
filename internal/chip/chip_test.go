package chip

import (
	"errors"
	"strings"
	"testing"
)

func TestPCRLayoutValid(t *testing.T) {
	l := PCRLayout()
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	counts := map[Kind]int{}
	for _, m := range l.Modules {
		counts[m.Kind]++
	}
	if counts[Reservoir] != 7 || counts[Mixer] != 3 || counts[Storage] != 5 ||
		counts[Waste] != 2 || counts[Output] != 1 {
		t.Errorf("module census = %v, want 7 reservoirs, 3 mixers, 5 storage, 2 waste, 1 output", counts)
	}
	// Reservoir Ri must dispense fluid x_i (paper §5).
	for i, m := range l.OfKind(Reservoir) {
		if m.Fluid != i {
			t.Errorf("reservoir %s dispenses fluid %d, want %d", m.Name, m.Fluid, i)
		}
	}
}

func TestLayoutValidationErrors(t *testing.T) {
	out := Layout{Width: 4, Height: 4, Modules: []Module{
		{Kind: Mixer, Name: "M1", Rect: Rect{X: 3, Y: 3, W: 2, H: 2}, Port: Point{0, 0}},
	}}
	if out.Validate() == nil {
		t.Error("out-of-bounds module accepted")
	}
	overlap := Layout{Width: 10, Height: 10, Modules: []Module{
		{Kind: Mixer, Name: "M1", Rect: Rect{X: 1, Y: 1, W: 2, H: 2}, Port: Point{0, 1}},
		{Kind: Mixer, Name: "M2", Rect: Rect{X: 2, Y: 2, W: 2, H: 2}, Port: Point{5, 5}},
	}}
	if overlap.Validate() == nil {
		t.Error("overlapping modules accepted")
	}
	dup := Layout{Width: 10, Height: 10, Modules: []Module{
		{Kind: Mixer, Name: "M1", Rect: Rect{X: 1, Y: 1, W: 2, H: 2}, Port: Point{0, 1}},
		{Kind: Mixer, Name: "M1", Rect: Rect{X: 5, Y: 5, W: 2, H: 2}, Port: Point{4, 5}},
	}}
	if dup.Validate() == nil {
		t.Error("duplicate names accepted")
	}
	badPort := Layout{Width: 10, Height: 10, Modules: []Module{
		{Kind: Mixer, Name: "M1", Rect: Rect{X: 1, Y: 1, W: 2, H: 2}, Port: Point{1, 1}},
	}}
	if badPort.Validate() == nil {
		t.Error("port inside module accepted")
	}
}

func TestPCRLayoutWithStorage(t *testing.T) {
	for n := 0; n <= 6; n++ {
		l, err := PCRLayoutWithStorage(n)
		if err != nil {
			t.Fatalf("WithStorage(%d): %v", n, err)
		}
		if got := len(l.OfKind(Storage)); got != n {
			t.Errorf("WithStorage(%d) has %d cells", n, got)
		}
	}
	if _, err := PCRLayoutWithStorage(7); err == nil {
		t.Error("7 storage cells accepted")
	}
	if _, err := PCRLayoutWithStorage(-1); err == nil {
		t.Error("negative storage accepted")
	}
}

func TestModuleLookup(t *testing.T) {
	l := PCRLayout()
	m, ok := l.Module("M2")
	if !ok || m.Kind != Mixer {
		t.Errorf("Module(M2) = %+v, %v", m, ok)
	}
	if _, ok := l.Module("nope"); ok {
		t.Error("unknown module found")
	}
}

func TestRenderSmoke(t *testing.T) {
	out := PCRLayout().Render()
	for _, want := range []string{"R", "M", "q", "W", "O", "+"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != PCRLayout().Height {
		t.Errorf("rendered %d rows, want %d", len(lines), PCRLayout().Height)
	}
}

func TestRectGeometry(t *testing.T) {
	r := Rect{X: 2, Y: 3, W: 2, H: 2}
	if !r.Contains(Point{2, 3}) || !r.Contains(Point{3, 4}) {
		t.Error("Contains misses interior points")
	}
	if r.Contains(Point{4, 3}) || r.Contains(Point{1, 3}) {
		t.Error("Contains hits exterior points")
	}
	if !r.Overlaps(Rect{X: 3, Y: 4, W: 2, H: 2}) {
		t.Error("Overlaps misses a touching-overlap")
	}
	if r.Overlaps(Rect{X: 4, Y: 3, W: 2, H: 2}) {
		t.Error("Overlaps hits an adjacent rect")
	}
}

func TestBlockedPredicate(t *testing.T) {
	l := PCRLayout()
	blocked := l.Blocked()
	for _, m := range l.Modules {
		if !blocked(Point{m.Rect.X, m.Rect.Y}) {
			t.Errorf("module %s interior not blocked", m.Name)
		}
		if blocked(m.Port) {
			t.Errorf("port of %s blocked", m.Name)
		}
	}
	// Channel electrodes are free.
	if blocked(Point{0, 0}) || blocked(Point{3, 3}) {
		t.Error("channel electrode blocked")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Reservoir: "reservoir", Mixer: "mixer", Storage: "storage", Waste: "waste", Output: "output"} {
		if k.String() != want {
			t.Errorf("Kind %d = %q, want %q", k, k.String(), want)
		}
	}
}

func TestAutoLayout(t *testing.T) {
	for _, c := range []struct{ fluids, mixers, storage int }{
		{2, 1, 0},
		{7, 3, 5},
		{10, 5, 8},
		{12, 4, 10},
	} {
		l, err := AutoLayout(c.fluids, c.mixers, c.storage)
		if err != nil {
			t.Fatalf("AutoLayout(%+v): %v", c, err)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("AutoLayout(%+v) invalid: %v", c, err)
		}
		if got := len(l.OfKind(Reservoir)); got != c.fluids {
			t.Errorf("%+v: %d reservoirs", c, got)
		}
		if got := len(l.OfKind(Mixer)); got != c.mixers {
			t.Errorf("%+v: %d mixers", c, got)
		}
		if got := len(l.OfKind(Storage)); got != c.storage {
			t.Errorf("%+v: %d storage cells", c, got)
		}
		if len(l.OfKind(Waste)) != 2 || len(l.OfKind(Output)) != 1 {
			t.Errorf("%+v: waste/output census wrong", c)
		}
		for i, m := range l.OfKind(Reservoir) {
			if m.Fluid != i {
				t.Errorf("%+v: reservoir %d dispenses fluid %d", c, i, m.Fluid)
			}
		}
	}
	if _, err := AutoLayout(0, 1, 1); err == nil {
		t.Error("zero fluids accepted")
	}
}

// TestAutoLayoutModuleCeiling pins the census limit: exactly MaxModules
// modules lay out, and one more mixer or storage cell is ErrTooManyModules
// before anything is allocated.
func TestAutoLayoutModuleCeiling(t *testing.T) {
	const fluids, storage = 2, 8
	atCeiling := MaxModules - fluids - storage - 3
	l, err := AutoLayout(fluids, atCeiling, storage)
	if err != nil {
		t.Fatalf("census of exactly %d modules refused: %v", MaxModules, err)
	}
	if got := len(l.Modules); got != MaxModules {
		t.Fatalf("layout holds %d modules, want %d", got, MaxModules)
	}
	for _, c := range []struct{ mixers, storage int }{
		{atCeiling + 1, storage},
		{atCeiling, storage + 1},
	} {
		if _, err := AutoLayout(fluids, c.mixers, c.storage); !errors.Is(err, ErrTooManyModules) {
			t.Errorf("AutoLayout(%d, %d, %d) = %v, want ErrTooManyModules", fluids, c.mixers, c.storage, err)
		}
	}
}
