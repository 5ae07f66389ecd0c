package mixgraph

// Stats summarises the single-pass cost of a base mix-split graph in the
// paper's notation.
type Stats struct {
	// Mixes is Tms for one pass: the number of (1:1) mix-split operations.
	Mixes int
	// Inputs counts input droplets per fluid (the paper's I[] for one pass).
	Inputs []int64
	// InputTotal is the total number of input droplets (the paper's I).
	InputTotal int64
	// Waste is W for one pass. By droplet conservation it always equals
	// InputTotal - 2 (two outputs of the root are targets).
	Waste int64
	// Depth is the level of the root node.
	Depth int
	// Shared counts mix nodes with both outputs consumed in-pass (common
	// subtrees; zero for plain trees such as MM and RMA).
	Shared int
}

// Stats computes the single-pass statistics of g.
func (g *Graph) Stats() Stats {
	s := Stats{Inputs: make([]int64, g.Target.N()), Depth: int(g.Root.Level)}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		switch n.Kind {
		case Leaf:
			s.Inputs[n.Fluid]++
			s.InputTotal++
		case Mix:
			s.Mixes++
			if n.nparents == 2 {
				s.Shared++
			}
			// Count waste directly (unconsumed outputs of non-root
			// mixes); in a validated graph this always equals
			// InputTotal - 2 by conservation.
			if n != g.Root {
				s.Waste += int64(2 - n.nparents)
			}
		}
	}
	return s
}

// Wastes lists the IDs of the non-root mix nodes with at least one
// unconsumed output, i.e. the droplets a single pass discards. These are
// exactly the droplets the paper's mixing forest recycles. Nodes appear in
// topological order; a node with two free outputs appears twice.
func (g *Graph) Wastes() []int32 {
	var out []int32
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Kind != Mix || n == g.Root {
			continue
		}
		for k := n.nparents; k < 2; k++ {
			out = append(out, n.ID)
		}
	}
	return out
}

// LevelWidths returns, for positional levels 1..Depth, the number of mix
// nodes at each level (index 0 corresponds to level 1). Scheduling every
// node at its positional level is always feasible, so the maximum width is
// an upper bound on the mixers needed for completion in Depth cycles.
func (g *Graph) LevelWidths() []int {
	w := make([]int, g.Root.Level)
	for i := range g.Nodes {
		if n := &g.Nodes[i]; n.Kind == Mix {
			w[n.PosLevel-1]++
		}
	}
	return w
}
