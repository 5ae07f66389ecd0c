package forest

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/mixgraph"
)

// Packed mixing forests: the one forest builder behind every entry point.
//
// A mixing forest is a static DAG — tasks never change after creation, every
// task has exactly two inputs and at most two consumers, and base-graph node
// IDs are dense — so the whole structure packs into flat arrays linked by
// int32 indices. A PackedBuilder runs the package's obtain recursion over
// those arrays and keeps every one of them (task arena, per-node waste-pool
// FIFOs, tree roots) across Reset calls, so after the first build of a
// given size, growing a forest performs zero heap allocations: the arenas
// are recycled, not reallocated. The engine layer (internal/stream) pools
// whole builders with sync.Pool.
//
// The packed forest is also what a plan cache holds and what the artifact
// codec of internal/artifact writes and reads. Build is this builder plus
// Materialize, which turns the arrays into the pointer-linked Forest that
// execution, export and rendering read; Pack is Materialize's inverse. The
// frozen fixtures of internal/stream (TestPlannerGolden) pin every forest
// it builds.

// PSource describes one input droplet of a packed task. For Kind == Input,
// Ref is the reservoir fluid index; for Kind == FromTask it is the producing
// task's index in PackedForest.Tasks.
type PSource struct {
	Ref    int32
	Kind   SourceKind
	Reused bool
}

// PTask is one (1:1) mix-split step in packed form. Its output CF vector is
// its base node's vector (tasks instantiate base-graph nodes), so packed
// tasks carry no vector words of their own — the index into the base graph
// is the vector.
//
// A task's tree is not stored: tasks of one component tree are contiguous,
// so PackedForest.TreeStart holds every task's tree (TreeOf). A PTask is 32
// bytes.
type PTask struct {
	// Base is the base-graph node ID this task instantiates.
	Base int32
	// Level is the paper's positional level of the mix, at most the base
	// graph's depth (ratio.MaxDepth, 62).
	Level int8
	// Targets is 2 for component-tree roots, 0 otherwise.
	Targets int8
	// NCons is the number of live entries in Cons.
	NCons int8
	// NInternal is the number of In entries produced by other tasks (Kind
	// FromTask): the task's predecessor count, kept so the scheduling
	// kernel need not re-derive it from In on every run.
	NInternal int8
	// Cons are the consuming task indices, in consumer-creation order. A
	// task has at most two output droplets, so two slots always suffice and
	// a packed task needs no consumer slice.
	Cons [2]int32
	// In are the two input droplets.
	In [2]PSource
}

// InternalInputs counts inputs produced by other tasks (0, 1 or 2).
func (t *PTask) InternalInputs() int { return int(t.NInternal) }

// FreeOutputs returns the task's final waste contribution: outputs that are
// neither targets nor consumed.
func (t *PTask) FreeOutputs() int { return 2 - int(t.Targets) - int(t.NCons) }

// PackedForest is a complete mixing forest in flat index-linked form.
type PackedForest struct {
	// Base is the base mixing graph the forest was grown from.
	Base *mixgraph.Graph
	// Demand is the requested droplet demand D.
	Demand int
	// Tasks is the task arena in topological (creation) order; a task's
	// index is its ID. Tasks of one component tree are contiguous.
	Tasks []PTask
	// Roots holds the root task index of each component tree, in tree order
	// (tree i+1 has root Roots[i]).
	Roots []int32
	// TreeStart[i] is the index of the first task of tree i+1; tree i+1
	// spans Tasks[TreeStart[i] : TreeStart[i+1]] (the last tree runs to
	// len(Tasks)). Tasks are created bottom-up, so each tree's root is the
	// last task of its span.
	TreeStart []int32
}

// NumTrees returns |F|, the number of component trees.
func (f *PackedForest) NumTrees() int { return len(f.Roots) }

// TreeOf returns the 1-based index of the component tree task i belongs
// to: the number of trees starting at or before it.
func (f *PackedForest) TreeOf(i int) int {
	k, _ := slices.BinarySearch(f.TreeStart, int32(i)+1)
	return k
}

// poolFIFO is one base-node waste-pool queue. Spares are appended at the
// tail and consumed from the head (oldest spare first); head chases tail
// instead of re-slicing so the backing array is reused forever.
type poolFIFO struct {
	items []int32
	head  int32
}

func (q *poolFIFO) push(id int32) { q.items = append(q.items, id) }

func (q *poolFIFO) pop() (int32, bool) {
	if int(q.head) >= len(q.items) {
		return 0, false
	}
	id := q.items[q.head]
	q.head++
	return id, true
}

func (q *poolFIFO) len() int { return len(q.items) - int(q.head) }

func (q *poolFIFO) reset() {
	q.items = q.items[:0]
	q.head = 0
}

// PackedBuilder grows a packed mixing forest incrementally, one component
// tree at a time, with the package's obtain recursion and a waste pool
// indexed by base-graph node ID. The zero value is usable after Reset; all
// internal arenas are retained across Reset calls.
type PackedBuilder struct {
	base *mixgraph.Graph
	f    PackedForest
	pool []poolFIFO // indexed by base-graph node ID
}

// NewPackedBuilder returns a builder over the given base graph.
func NewPackedBuilder(base *mixgraph.Graph) *PackedBuilder {
	b := &PackedBuilder{}
	b.Reset(base)
	return b
}

// Reset rewinds the builder to an empty forest over base, retaining every
// arena it has grown so far. After the builder has once built a forest of
// some size, rebuilding any forest up to that size allocates nothing.
func (b *PackedBuilder) Reset(base *mixgraph.Graph) {
	b.base = base
	b.f.Base = base
	b.f.Demand = 0
	b.f.Tasks = b.f.Tasks[:0]
	b.f.Roots = b.f.Roots[:0]
	b.f.TreeStart = b.f.TreeStart[:0]
	n := len(base.Nodes)
	if cap(b.pool) < n {
		b.pool = make([]poolFIFO, n)
	} else {
		b.pool = b.pool[:n]
		for i := range b.pool {
			b.pool[i].reset()
		}
	}
}

// PoolSize returns the number of spare droplets awaiting reuse.
func (b *PackedBuilder) PoolSize() int {
	n := 0
	for i := range b.pool {
		n += b.pool[i].len()
	}
	return n
}

// Forest returns the forest built so far. The returned pointer aliases the
// builder's arenas: it is valid until the next Reset, and keeps growing with
// further AddTree calls.
func (b *PackedBuilder) Forest() *PackedForest {
	b.f.Demand = 2 * len(b.f.Roots)
	return &b.f
}

// AddTree appends the next component tree (two droplets of capacity) and
// returns its root task index.
func (b *PackedBuilder) AddTree() int32 {
	start := int32(len(b.f.Tasks))
	b.f.TreeStart = append(b.f.TreeStart, start)
	rootNode := b.base.Root
	l := b.obtain(rootNode.Children[0], start)
	r := b.obtain(rootNode.Children[1], start)
	root := b.newTask(rootNode, l, r)
	b.f.Tasks[root].Targets = 2
	b.f.Roots = append(b.f.Roots, root)
	return root
}

// obtain is the package's recursive procedure: pooled spare first, fresh
// input droplet for leaves, otherwise a new mix over the children (whose
// spare output joins the pool). start is the current tree's first task: a
// spare made before it is a cross-tree reuse.
func (b *PackedBuilder) obtain(v *mixgraph.Node, start int32) PSource {
	if id, ok := b.pool[v.ID].pop(); ok {
		return PSource{Kind: FromTask, Ref: id, Reused: id < start}
	}
	if v.IsLeaf() {
		return PSource{Kind: Input, Ref: int32(v.Fluid)}
	}
	l := b.obtain(v.Children[0], start)
	r := b.obtain(v.Children[1], start)
	t := b.newTask(v, l, r)
	b.pool[v.ID].push(t)
	return PSource{Kind: FromTask, Ref: t}
}

// FromChildren reports whether task i reads its inputs as obtain gives
// every task of its base node v, the premise of DESIGN §14's lemma: input
// k is a dispense of v.Children[k]'s fluid when that child is a leaf, and
// otherwise an output of an earlier task of v.Children[k], whether before
// a persistent window or in it. By induction over the tasks, every task
// meeting it carries v's vector exactly. Task i's Base must be a mix node
// of f.Base.
func (f *PackedForest) FromChildren(i int) bool {
	t := &f.Tasks[i]
	for k, c := range f.Base.Nodes[t.Base].Children {
		src := t.In[k]
		if !(c.IsLeaf() && src.Kind == Input && src.Ref == int32(c.Fluid) ||
			!c.IsLeaf() && src.Kind == FromTask && src.Ref >= 0 && int(src.Ref) < i && f.Tasks[src.Ref].Base == int32(c.ID)) {
			return false
		}
	}
	return true
}

func (b *PackedBuilder) newTask(v *mixgraph.Node, l, r PSource) int32 {
	id := int32(len(b.f.Tasks))
	if len(b.f.Tasks) == cap(b.f.Tasks) {
		// Double: append grows a large slice by only 1.25×, and a
		// persistent pool's arena grows for the engine's whole life.
		b.f.Tasks = slices.Grow(b.f.Tasks, max(len(b.f.Tasks), 64))
	}
	b.f.Tasks = append(b.f.Tasks, PTask{
		Base:  int32(v.ID),
		Level: int8(v.PosLevel),
		In:    [2]PSource{l, r},
	})
	for _, s := range [2]PSource{l, r} {
		if s.Kind == FromTask {
			b.f.Tasks[id].NInternal++
			p := &b.f.Tasks[s.Ref]
			p.Cons[p.NCons] = id
			p.NCons++
		}
	}
	return id
}

// ErrArenaOverflow reports a demand whose forest could exceed the packed
// arena's int32 index space.
var ErrArenaOverflow = errors.New("forest: demand exceeds packed arena capacity")

// BuildPacked constructs the packed mixing forest for demand D into the
// given builder (resetting it first). Build is BuildPacked plus
// Materialize; each counts toward BuildCount once.
func BuildPacked(b *PackedBuilder, base *mixgraph.Graph, demand int) (*PackedForest, error) {
	if demand <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadDemand, demand)
	}
	trees := (demand + 1) / 2
	// The arena addresses tasks with int32 indices. Each tree materializes at
	// most one task per base-graph node, so trees*len(Nodes) bounds the arena;
	// refuse demands that could overflow it rather than corrupt links silently.
	if int64(trees)*int64(len(base.Nodes)) > math.MaxInt32 {
		return nil, fmt.Errorf("%w: demand %d needs up to %d tasks", ErrArenaOverflow, demand, int64(trees)*int64(len(base.Nodes)))
	}
	buildCount.Add(1)
	b.Reset(base)
	for i := 0; i < trees; i++ {
		b.AddTree()
	}
	f := b.Forest()
	f.Demand = demand
	return f, nil
}

// Materialize builds the pointer-linked Forest of a packed one in a fresh
// allocation of a constant number of backing arrays. Consumers are derived
// from the sources naming them, not from Cons, so a persistent batch's
// slab materializes as the forest stood when the batch committed. It runs
// once per plan whose pointer forms a caller asks for.
func (f *PackedForest) Materialize() *Forest {
	n := len(f.Tasks)
	out := &Forest{
		Base:   f.Base,
		Demand: f.Demand,
		Tasks:  make([]*Task, n),
		Trees:  make([]*Tree, len(f.Roots)),
	}
	tasks := make([]Task, n)
	// Two consumer slots per task, one per output.
	consArena := make([]*Task, 2*n)
	for i := range tasks {
		out.Tasks[i] = &tasks[i]
	}
	vecs := f.Base.Vectors()
	for i := range f.Tasks {
		pt := &f.Tasks[i]
		node := f.Base.Nodes[pt.Base]
		t := &tasks[i]
		*t = Task{ID: i, Tree: f.TreeOf(i), Base: node, Level: int(pt.Level), Vec: vecs[pt.Base], Targets: int(pt.Targets),
			consumers: consArena[2*i : 2*i : 2*i+2]}
		for s, src := range pt.In {
			if src.Kind == Input {
				t.In[s] = Source{Kind: Input, Fluid: int(src.Ref)}
				continue
			}
			p := &tasks[src.Ref]
			t.In[s] = Source{Kind: FromTask, Task: p, Reused: src.Reused}
			p.consumers = append(p.consumers, t)
		}
	}
	trees := make([]Tree, len(f.Roots))
	want := f.Base.Target.Vector()
	for i := range trees {
		lo, hi := f.TreeStart[i], int32(n)
		if i+1 < len(f.TreeStart) {
			hi = f.TreeStart[i+1]
		}
		trees[i] = Tree{Index: i + 1, Root: out.Tasks[f.Roots[i]], Tasks: out.Tasks[lo:hi:hi], Want: want}
		out.Trees[i] = &trees[i]
	}
	return out
}

// Pack flattens a pointer-linked forest into packed form — the inverse of
// Materialize, so Pack(pf.Materialize()) equals pf — letting the packed
// scheduling kernel and the plan slab hold a forest no PackedBuilder grew:
// BuildMulti's multi-target forests and hand-built ones
// (plancache.NewPlan). Single-target planners schedule the PackedBuilder
// forest itself and never need it.
// PTask.Base is the ID of the task's node within its own base graph;
// a multi-target forest's tasks instantiate nodes of several graphs, so
// only a single-target packing may be materialized again (the scheduling
// kernel never reads Base). A task with more than two consumers has no
// packed form and is reported as an error.
func Pack(f *Forest) (*PackedForest, error) {
	pf := &PackedForest{
		Base:      f.Base,
		Demand:    f.Demand,
		Tasks:     make([]PTask, len(f.Tasks)),
		Roots:     make([]int32, len(f.Trees)),
		TreeStart: make([]int32, len(f.Trees)),
	}
	for i, t := range f.Tasks {
		if len(t.consumers) > len(PTask{}.Cons) {
			return nil, fmt.Errorf("forest: task %d has %d consumers, a mix-split has two outputs", i, len(t.consumers))
		}
		pt := &pf.Tasks[i]
		*pt = PTask{Base: int32(t.Base.ID), Level: int8(t.Level), Targets: int8(t.Targets), NCons: int8(len(t.consumers))}
		for c, consumer := range t.consumers {
			pt.Cons[c] = int32(consumer.ID)
		}
		for s, src := range t.In {
			if src.Kind == Input {
				pt.In[s] = PSource{Kind: Input, Ref: int32(src.Fluid)}
			} else {
				pt.In[s] = PSource{Kind: FromTask, Ref: int32(src.Task.ID), Reused: src.Reused}
				pt.NInternal++
			}
		}
	}
	for i, tree := range f.Trees {
		pf.Roots[i] = int32(tree.Root.ID)
		pf.TreeStart[i] = int32(tree.Root.ID)
		if len(tree.Tasks) > 0 {
			pf.TreeStart[i] = int32(tree.Tasks[0].ID)
		}
	}
	return pf, nil
}

// TreesBefore returns how many trees start before task first, where a
// window from first starts.
func (f *PackedForest) TreesBefore(first int) int {
	if first == 0 {
		return 0
	}
	k, _ := slices.BinarySearch(f.TreeStart, int32(first))
	return k
}

// PackedStats computes the aggregate statistics of the forest's tasks from
// first on (the whole forest's for 0) without materializing it. A
// persistent window's waste is the pool's change: its spares, less the
// earlier spares it consumes. Inputs is written into the caller's slice
// (len >= fluid count), which the returned stats alias.
func (f *PackedForest) PackedStats(first int, inputs []int64) Stats {
	n := f.Base.Target.N()
	inputs = inputs[:n]
	for i := range inputs {
		inputs[i] = 0
	}
	trees := len(f.Roots) - f.TreesBefore(first)
	s := Stats{
		Trees:   trees,
		Mixes:   len(f.Tasks) - first,
		Inputs:  inputs,
		Targets: 2 * trees,
	}
	for i := first; i < len(f.Tasks); i++ {
		t := &f.Tasks[i]
		for _, src := range t.In {
			if src.Kind == Input {
				inputs[src.Ref]++
				s.InputTotal++
				continue
			}
			if src.Reused {
				s.Reuses++
			}
			if int(src.Ref) < first {
				s.Waste--
			}
		}
		s.Waste += int64(t.FreeOutputs())
	}
	return s
}
