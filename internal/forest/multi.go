package forest

import (
	"errors"
	"fmt"

	"repro/internal/mixgraph"
	"repro/internal/ratio"
)

// Multi-target forests. The DAC 2014 paper solves MDST — many droplets of a
// single target — and classifies SDMT (droplets of multiple targets) as
// open for mixtures (Table 1). MultiBuilder closes part of that gap as a
// natural generalisation of the mixing forest: several targets over the
// same fluid set grow component trees into one combined forest, and the
// waste pool is keyed by exact CF vector rather than by base-tree node, so
// a droplet spilled while preparing one target seeds another target's tree
// whenever their sub-mixtures coincide.

// ErrFluidMismatch reports targets over different fluid universes.
var ErrFluidMismatch = errors.New("forest: multi-target bases must share one fluid set")

// MultiBuilder grows component trees for several targets over one shared,
// vector-keyed droplet pool. The pool is keyed by the 64-bit CF-vector hash
// (ratio.Vector.Hash) instead of the fmt-built string key — the hot lookup
// is a few integer multiplies, no string allocation — and every candidate is
// confirmed with an exact Equal before reuse, so a (2^-64-odds) hash
// collision degrades to a miss, never to a wrong droplet.
type MultiBuilder struct {
	bases []*mixgraph.Graph
	vecs  [][]ratio.Vector // each base's node vectors (Graph.Vectors)
	f     *Forest
	pool  map[uint64][]*Task // CF-vector hash -> tasks with a spare output
	tasks int
}

// NewMultiBuilder returns a builder over the given base graphs (one per
// target). All targets must span the same number of fluids, with fluid
// indices referring to the same physical reservoirs.
func NewMultiBuilder(bases []*mixgraph.Graph) (*MultiBuilder, error) {
	if len(bases) == 0 {
		return nil, errors.New("forest: no base graphs")
	}
	n := bases[0].Target.N()
	for _, b := range bases[1:] {
		if b.Target.N() != n {
			return nil, fmt.Errorf("%w: %d vs %d fluids", ErrFluidMismatch, n, b.Target.N())
		}
	}
	vecs := make([][]ratio.Vector, len(bases))
	for i, b := range bases {
		vecs[i] = b.Vectors()
	}
	return &MultiBuilder{
		bases: bases,
		vecs:  vecs,
		f:     &Forest{Base: bases[0], Bases: bases},
		pool:  make(map[uint64][]*Task),
	}, nil
}

// takeSpare removes and returns the oldest pooled task whose CF vector is
// exactly v, searching the bucket for the given hash. FIFO order among
// equal vectors is preserved: buckets are append-at-tail, and removal shifts
// the remainder down (buckets are nearly always length 0-2).
func (b *MultiBuilder) takeSpare(key uint64, v ratio.Vector) (*Task, bool) {
	bucket := b.pool[key]
	for i, t := range bucket {
		if t.Vec.Equal(v) {
			b.pool[key] = append(bucket[:i], bucket[i+1:]...)
			return t, true
		}
	}
	return nil, false
}

// PoolSize returns the number of spare droplets awaiting reuse.
func (b *MultiBuilder) PoolSize() int {
	n := 0
	for _, s := range b.pool {
		n += len(s)
	}
	return n
}

// AddTree appends a component tree for target `ti` (index into the builder's
// base graphs), adding two droplets of that target.
func (b *MultiBuilder) AddTree(ti int) (*Tree, error) {
	if ti < 0 || ti >= len(b.bases) {
		return nil, fmt.Errorf("forest: target %d outside [0, %d)", ti, len(b.bases))
	}
	base, vecs := b.bases[ti], b.vecs[ti]
	idx := len(b.f.Trees) + 1
	tree := &Tree{Index: idx, Want: base.Target.Vector()}

	var obtain func(id int32) Source
	obtain = func(id int32) Source {
		v, vec := &base.Nodes[id], vecs[id]
		key := vec.Hash()
		if t, ok := b.takeSpare(key, vec); ok {
			return Source{Kind: FromTask, Task: t, Reused: t.Tree != idx}
		}
		if v.IsLeaf() {
			return Source{Kind: Input, Fluid: int(v.Fluid)}
		}
		l := obtain(v.Children[0])
		r := obtain(v.Children[1])
		t := b.newTask(v, vec, l, r, tree)
		b.pool[key] = append(b.pool[key], t)
		return Source{Kind: FromTask, Task: t}
	}

	rootNode := base.Root
	l := obtain(rootNode.Children[0])
	r := obtain(rootNode.Children[1])
	root := b.newTask(rootNode, vecs[rootNode.ID], l, r, tree)
	root.Targets = 2
	tree.Root = root
	b.f.Trees = append(b.f.Trees, tree)
	return tree, nil
}

func (b *MultiBuilder) newTask(v *mixgraph.Node, vec ratio.Vector, l, r Source, tree *Tree) *Task {
	t := &Task{
		ID:    b.tasks,
		Tree:  tree.Index,
		Base:  v,
		Level: int(v.PosLevel),
		In:    [2]Source{l, r},
		Vec:   vec,
	}
	b.tasks++
	for _, s := range t.In {
		if s.Kind == FromTask {
			s.Task.consumers = append(s.Task.consumers, t)
		}
	}
	tree.Tasks = append(tree.Tasks, t)
	b.f.Tasks = append(b.f.Tasks, t)
	return t
}

// Forest returns the combined forest built so far. Its Base is the first
// target's graph; per-tree targets are carried in Tree.Want, and Validate
// checks each root against its own target.
func (b *MultiBuilder) Forest() *Forest {
	b.f.Demand = 2 * len(b.f.Trees)
	return b.f
}

// BuildMulti grows a combined forest meeting a demand per target (demands[i]
// droplets of bases[i].Target). Trees are added round-robin across targets
// with outstanding demand, so waste flows in both directions.
func BuildMulti(bases []*mixgraph.Graph, demands []int) (*Forest, error) {
	if len(bases) != len(demands) {
		return nil, fmt.Errorf("forest: %d bases for %d demands", len(bases), len(demands))
	}
	b, err := NewMultiBuilder(bases)
	if err != nil {
		return nil, err
	}
	remaining := make([]int, len(demands))
	total := 0
	for i, d := range demands {
		if d <= 0 {
			return nil, fmt.Errorf("%w: target %d demand %d", ErrBadDemand, i, d)
		}
		remaining[i] = (d + 1) / 2
		total += remaining[i]
	}
	for total > 0 {
		for i := range remaining {
			if remaining[i] == 0 {
				continue
			}
			if _, err := b.AddTree(i); err != nil {
				return nil, err
			}
			remaining[i]--
			total--
		}
	}
	return b.Forest(), nil
}

// TargetsOf returns, per base index, how many droplets of that target the
// forest emits. Trees are matched to targets by their Want vectors.
func TargetsOf(f *Forest, bases []*mixgraph.Graph) []int {
	out := make([]int, len(bases))
	for _, tree := range f.Trees {
		for i, b := range bases {
			if tree.Want.Equal(b.Target.Vector()) {
				out[i] += 2
				break
			}
		}
	}
	return out
}
