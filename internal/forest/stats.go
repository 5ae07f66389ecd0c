package forest

import (
	"fmt"

	"repro/internal/mixgraph"
	"repro/internal/ratio"
)

// Stats summarises a mixing forest in the paper's notation.
type Stats struct {
	// Trees is |F|, the number of component mixing trees.
	Trees int
	// Mixes is Tms, the total number of (1:1) mix-split steps.
	Mixes int
	// Waste is W, the number of droplets discarded at the end of the run.
	Waste int64
	// Inputs is I[], input droplets consumed per fluid.
	Inputs []int64
	// InputTotal is I = sum(Inputs).
	InputTotal int64
	// Targets is the number of emitted target droplets (2 per tree).
	Targets int
	// Reuses counts cross-tree waste reuses (brown nodes in Figs. 1-2).
	Reuses int
}

// Stats computes the forest's aggregate statistics.
func (f *Forest) Stats() Stats {
	s := Stats{
		Trees:   len(f.Trees),
		Mixes:   len(f.Tasks),
		Inputs:  make([]int64, f.Base.Target.N()),
		Targets: 2 * len(f.Trees),
	}
	for _, t := range f.Tasks {
		for _, src := range t.In {
			if src.Kind == Input {
				s.Inputs[src.Fluid]++
				s.InputTotal++
			} else if src.Reused {
				s.Reuses++
			}
		}
		s.Waste += int64(t.FreeOutputs())
	}
	return s
}

// Validate checks the forest's structural invariants: exact CF arithmetic at
// every task, each task at its base node's positional level (the level the
// schedulers' priorities read), tag-correct waste reuse, output-consumption
// bounds, droplet conservation and topological ordering. It returns nil
// for forests produced by Build/Builder; it exists so tests (and
// downstream users constructing forests manually) can prove correctness
// rather than assume it.
func (f *Forest) Validate() error {
	_, err := f.ValidateStats()
	return err
}

// ValidateStats is Validate returning, on success, the Stats its
// conservation check computed, so an auditor needs only one pass over the
// tasks for both. The pointer-form audit (audit.CheckForest, which the
// facade exports) calls it; the plans the serving layer caches are audited
// on their slabs instead (audit.CheckPacked). Its clean path allocates a
// fixed handful of objects however large the forest: source identity is an
// index check against Tasks (no visited-set map) and each task's CF is
// recomputed in one reused word buffer, which also holds the base nodes'
// vectors (Graph.VectorWords). Vectors are boxed only to render a message
// once a check has failed.
func (f *Forest) ValidateStats() (Stats, error) {
	n := f.Base.Target.N()
	words := make([]int64, 3*n+len(f.Base.Nodes)*(n+1))
	left, right, mix := words[:n], words[n:2*n], words[2*n:3*n]
	base := baseVectors{g: f.Base, words: words[3*n:], n: n, others: f.Bases}
	f.Base.VectorWords(base.words)
	for i, t := range f.Tasks {
		if t.ID != i {
			return Stats{}, fmt.Errorf("forest: task %d has ID %d", i, t.ID)
		}
		for _, src := range t.In {
			switch src.Kind {
			case Input:
				if src.Fluid < 0 || src.Fluid >= n {
					return Stats{}, fmt.Errorf("forest: task %d consumes unknown fluid %d", i, src.Fluid)
				}
			case FromTask:
				if src.Task == t {
					return Stats{}, fmt.Errorf("forest: task %d consumes task %d out of topological order", i, i)
				}
				// Tasks before i already passed the ID check, so an earlier
				// task of this forest is exactly one found at its own ID.
				if src.Task == nil || src.Task.ID < 0 || src.Task.ID >= i || f.Tasks[src.Task.ID] != src.Task {
					return Stats{}, fmt.Errorf("forest: task %d consumes a task outside the forest or after itself", i)
				}
			default:
				return Stats{}, fmt.Errorf("forest: task %d has invalid source kind %d", i, src.Kind)
			}
		}
		exp := ratio.MixWordsInto(mix, left, t.In[0].words(left), right, t.In[1].words(right))
		if !t.Vec.EqualWords(mix, exp) {
			want := ratio.Mix(t.In[0].Vec(n), t.In[1].Vec(n))
			return Stats{}, fmt.Errorf("forest: task %d vector %v, inputs average %v", i, t.Vec, want)
		}
		if !base.equal(t.Vec, t.Base) {
			if want, ok := base.derive(t.Base); ok {
				return Stats{}, fmt.Errorf("forest: task %d vector %v does not match its base node %v", i, t.Vec, want)
			}
			return Stats{}, fmt.Errorf("forest: task %d instantiates a node of no base graph of the forest", i)
		}
		if t.Level != int(t.Base.PosLevel) {
			return Stats{}, fmt.Errorf("forest: task %d at level %d, its base node at positional level %d", i, t.Level, t.Base.PosLevel)
		}
		if t.Targets+len(t.consumers) > 2 {
			return Stats{}, fmt.Errorf("forest: task %d outputs over-consumed (%d targets + %d consumers)",
				i, t.Targets, len(t.consumers))
		}
	}
	var target ratio.Vector // built on first use: trees normally carry Want
	for _, tree := range f.Trees {
		if tree.Root == nil {
			return Stats{}, fmt.Errorf("forest: tree %d has no root", tree.Index)
		}
		if tree.Root.Targets != 2 {
			return Stats{}, fmt.Errorf("forest: tree %d root emits %d targets, want 2", tree.Index, tree.Root.Targets)
		}
		want := tree.Want
		if want.IsZero() {
			if target.IsZero() {
				target = f.Base.Target.Vector()
			}
			want = target
		}
		if !tree.Root.Vec.Equal(want) {
			return Stats{}, fmt.Errorf("forest: tree %d root vector %v, want target %v", tree.Index, tree.Root.Vec, want)
		}
	}
	// Droplet conservation: every droplet dispensed ends as a target or as
	// waste; mixes preserve droplet count.
	s := f.Stats()
	if s.InputTotal != int64(s.Targets)+s.Waste {
		return Stats{}, fmt.Errorf("forest: conservation violated: I=%d, targets=%d, W=%d",
			s.InputTotal, s.Targets, s.Waste)
	}
	return s, nil
}

// baseVectors gives the CF vectors of the base nodes a forest's tasks
// instantiate. Nodes of the forest's base graph read its propagated words;
// a multi-target forest's tasks also instantiate nodes of its other bases,
// whose vectors are propagated once per graph on first use.
type baseVectors struct {
	g      *mixgraph.Graph
	words  []int64 // g's node vectors, laid out by Graph.VectorWords
	n      int     // the fluid count
	others []*mixgraph.Graph
	vecs   map[*mixgraph.Graph][]ratio.Vector
}

// owns reports whether v is a node of g's node array.
func owns(g *mixgraph.Graph, v *mixgraph.Node) bool {
	return v.ID >= 0 && int(v.ID) < len(g.Nodes) && &g.Nodes[v.ID] == v
}

// equal reports whether vec is base node v's vector.
func (b *baseVectors) equal(vec ratio.Vector, v *mixgraph.Node) bool {
	if owns(b.g, v) {
		w := b.words[int(v.ID)*(b.n+1):][:b.n+1]
		return vec.EqualWords(w[:b.n], uint(w[b.n]))
	}
	want, ok := b.derive(v)
	return ok && vec.Equal(want)
}

// derive returns base node v's vector, false if v is a node of none of the
// forest's base graphs: the path for nodes of other base graphs, and for
// messages.
func (b *baseVectors) derive(v *mixgraph.Node) (ratio.Vector, bool) {
	g := b.graphOf(v)
	if g == nil {
		return ratio.Vector{}, false
	}
	vecs, ok := b.vecs[g]
	if !ok {
		if b.vecs == nil {
			b.vecs = make(map[*mixgraph.Graph][]ratio.Vector)
		}
		vecs = g.Vectors()
		b.vecs[g] = vecs
	}
	return vecs[v.ID], true
}

// graphOf returns the forest's base graph whose node array holds v, nil
// if none does.
func (b *baseVectors) graphOf(v *mixgraph.Node) *mixgraph.Graph {
	if owns(b.g, v) {
		return b.g
	}
	for _, g := range b.others {
		if owns(g, v) {
			return g
		}
	}
	return nil
}
