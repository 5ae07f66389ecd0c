package chip

import (
	"errors"
	"fmt"
)

// The lattice floorplan: modules sit on a coarse grid with one-electrode
// routing channels between them, the standard cross-referencing style of
// module placement used for DMF biochips (cf. Fig. 5 of the paper and the
// routing-aware allocation of Roy et al., ISVLSI 2013 [21]). A slot (c, r)
// holds a module block at electrodes (1+3c, 1+3r)..(2+3c, 2+3r); its port is
// the channel electrode immediately to the block's left. Channel columns
// x = 3c and channel rows y = 3r stay free, so every port is reachable from
// every other.

// SlotRect returns the 2x2 block rectangle of lattice slot (c, r).
func SlotRect(c, r int) Rect { return Rect{X: 1 + 3*c, Y: 1 + 3*r, W: 2, H: 2} }

// SlotPort returns the port electrode of lattice slot (c, r).
func SlotPort(c, r int) Point { return Point{X: 3 * c, Y: 1 + 3*r} }

// SlotExit returns the exit electrode of lattice slot (c, r): the channel
// cell directly below the block's left column, distinct from every slot's
// port.
func SlotExit(c, r int) Point { return Point{X: 1 + 3*c, Y: 3 * (r + 1)} }

// LatticeSize returns the electrode-array dimensions for a cols x rows
// lattice.
func LatticeSize(cols, rows int) (width, height int) { return 3*cols + 1, 3*rows + 1 }

// Slot places a module on the lattice.
type Slot struct {
	Col, Row int
	Kind     Kind
	Name     string
	Fluid    int // reservoir fluid index; ignored for other kinds
}

// NewLatticeLayout builds a validated layout from lattice slot assignments.
func NewLatticeLayout(cols, rows int, slots []Slot) (*Layout, error) {
	w, h := LatticeSize(cols, rows)
	l := &Layout{Width: w, Height: h}
	for _, s := range slots {
		if s.Col < 0 || s.Col >= cols || s.Row < 0 || s.Row >= rows {
			return nil, fmt.Errorf("chip: slot (%d,%d) outside %dx%d lattice", s.Col, s.Row, cols, rows)
		}
		fluid := s.Fluid
		if s.Kind != Reservoir {
			fluid = -1
		}
		m := Module{
			Kind:  s.Kind,
			Name:  s.Name,
			Fluid: fluid,
			Rect:  SlotRect(s.Col, s.Row),
			Port:  SlotPort(s.Col, s.Row),
		}
		if s.Kind == Mixer {
			m.Exit = SlotExit(s.Col, s.Row)
			m.HasExit = true
		}
		l.Modules = append(l.Modules, m)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}

// PCRLayout builds the reference floorplan for the PCR master-mix engine of
// §5: seven fluid reservoirs (R1..R7, reservoir Ri loaded with fluid xi),
// three mixers (M1..M3), five storage cells (q1..q5), two waste reservoirs
// (W1, W2) and the target output port, on a 5x4 lattice (16x13 electrodes).
// Reservoirs line the west edge and corners, mixers sit centrally with the
// storage cells directly below them, as in Fig. 5.
func PCRLayout() *Layout {
	slots := []Slot{
		{0, 0, Reservoir, "R1", 0},
		{1, 0, Reservoir, "R2", 1},
		{2, 0, Reservoir, "R3", 2},
		{3, 0, Reservoir, "R4", 3},
		{4, 0, Waste, "W1", -1},
		{0, 1, Reservoir, "R5", 4},
		{1, 1, Mixer, "M1", -1},
		{2, 1, Mixer, "M2", -1},
		{3, 1, Mixer, "M3", -1},
		{4, 1, Waste, "W2", -1},
		{0, 2, Reservoir, "R6", 5},
		{1, 2, Storage, "q1", -1},
		{2, 2, Storage, "q2", -1},
		{3, 2, Storage, "q3", -1},
		{4, 2, Output, "OUT", -1},
		{0, 3, Reservoir, "R7", 6},
		{1, 3, Storage, "q4", -1},
		{2, 3, Storage, "q5", -1},
	}
	l, err := NewLatticeLayout(5, 4, slots)
	if err != nil {
		panic(err) // constant floorplan; cannot fail
	}
	return l
}

// MaxModules bounds the module census of an AutoLayout floorplan. Routing
// keeps a module-by-module transport matrix, so the census sets its size:
// 1024 modules make a 4 MiB matrix.
const MaxModules = 1024

// ErrTooManyModules rejects an AutoLayout census above MaxModules.
var ErrTooManyModules = errors.New("chip: module census exceeds the floorplan limit")

// AutoLayout builds a lattice floorplan for an arbitrary protocol: nFluids
// reservoirs (Ri dispensing fluid i-1), nMixers mixers, nStorage storage
// cells, two waste reservoirs and an output port. Reservoirs fill the west
// columns, mixers the next column block, storage after them — the same
// discipline as the PCR reference floorplan, at whatever lattice size fits.
// A census above MaxModules is ErrTooManyModules.
func AutoLayout(nFluids, nMixers, nStorage int) (*Layout, error) {
	if nFluids < 1 || nMixers < 1 || nStorage < 0 {
		return nil, fmt.Errorf("chip: invalid census %d/%d/%d", nFluids, nMixers, nStorage)
	}
	total := nFluids + nMixers + nStorage + 3
	if nFluids > MaxModules || nMixers > MaxModules || nStorage > MaxModules || total > MaxModules {
		return nil, fmt.Errorf("%w: %d reservoirs, %d mixers, %d storage cells and 3 ports, limit %d modules",
			ErrTooManyModules, nFluids, nMixers, nStorage, MaxModules)
	}
	// Pick a near-square lattice with enough slots.
	rows := 3
	for ; rows*rows < total; rows++ {
	}
	cols := (total + rows - 1) / rows
	if cols < 3 {
		cols = 3
	}
	var slots []Slot
	next := 0
	place := func(kind Kind, name string, fluid int) {
		slots = append(slots, Slot{
			Col: next / rows, Row: next % rows,
			Kind: kind, Name: name, Fluid: fluid,
		})
		next++
	}
	for i := 0; i < nFluids; i++ {
		place(Reservoir, fmt.Sprintf("R%d", i+1), i)
	}
	for i := 0; i < nMixers; i++ {
		place(Mixer, fmt.Sprintf("M%d", i+1), -1)
	}
	for i := 0; i < nStorage; i++ {
		place(Storage, fmt.Sprintf("q%d", i+1), -1)
	}
	place(Waste, "W1", -1)
	place(Waste, "W2", -1)
	place(Output, "OUT", -1)
	return NewLatticeLayout(cols, rows, slots)
}

// WithStorage returns a copy of the PCR layout holding exactly n storage
// cells (n <= 6; the sixth occupies the remaining lattice slot). Streaming
// experiments sweep the storage budget (Table 4).
func PCRLayoutWithStorage(n int) (*Layout, error) {
	if n < 0 || n > 6 {
		return nil, fmt.Errorf("chip: PCR layout supports 0..6 storage cells, got %d", n)
	}
	base := PCRLayout()
	var out []Module
	kept := 0
	for _, m := range base.Modules {
		if m.Kind == Storage {
			if kept >= n {
				continue
			}
			kept++
		}
		out = append(out, m)
	}
	l := &Layout{Width: base.Width, Height: base.Height, Modules: out}
	if kept < n {
		l.Modules = append(l.Modules, Module{
			Kind: Storage, Name: "q6", Fluid: -1,
			Rect: SlotRect(3, 3), Port: SlotPort(3, 3),
		})
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}
