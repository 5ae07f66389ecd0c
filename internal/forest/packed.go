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
// FIFOs, tree starts) across Reset calls, so after the first build of a
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

// PSource is one input droplet of a packed task in one int32: a value
// >= 0 is the index of the producing task in PackedForest.Tasks, a value
// < 0 is ^f, a dispense of reservoir fluid f. Whether a task's droplet is
// reused across trees is not stored: it is iff the producer precedes the
// consuming task's tree.
type PSource int32

// TaskSource is an output droplet of task i.
func TaskSource(i int32) PSource { return PSource(i) }

// InputSource is a fresh droplet of reservoir fluid f.
func InputSource(f int32) PSource { return PSource(^f) }

// Kind reports whether the droplet is dispensed (Input) or made by a task
// (FromTask).
func (s PSource) Kind() SourceKind {
	if s < 0 {
		return Input
	}
	return FromTask
}

// Ref is the producing task's index for a FromTask source and the fluid
// index for an Input one.
func (s PSource) Ref() int32 {
	if s < 0 {
		return int32(^s)
	}
	return int32(s)
}

// PTask is one (1:1) mix-split step in packed form: only what cannot be
// derived. Its output CF vector is its base node's vector (tasks
// instantiate base-graph nodes), so packed tasks carry no vector words of
// their own — the index into the base graph is the vector.
//
// Everything else follows from the tasks' sources and the tree spans, and
// each reader derives it once per call: a task's tree is the
// PackedForest.TreeStart span holding it (TreeOf), it emits two target
// droplets iff it is the last task of its span, a source is a cross-tree
// reuse iff it names a task before its own tree's first task, its
// predecessors are its FromTask sources, and its consumers are the tasks
// whose sources name it. Tasks are write-once: no later tree, batch or
// window writes an earlier task. A PTask is 16 bytes.
type PTask struct {
	// Base is the base-graph node ID this task instantiates.
	Base int32
	// Level is the paper's positional level of the mix, at most the base
	// graph's depth (ratio.MaxDepth, 62). It is stored, not looked up in
	// the base graph: a multi-target forest (Pack) instantiates nodes of
	// several graphs, and the scheduling kernel never reads Base.
	Level int8
	// In are the two input droplets.
	In [2]PSource
}

// InternalInputs counts inputs produced by other tasks (0, 1 or 2): the
// sources whose sign bit is clear.
func (t *PTask) InternalInputs() int {
	return 2 - int(uint32(t.In[0])>>31) - int(uint32(t.In[1])>>31)
}

// PackedForest is a complete mixing forest in flat index-linked form.
type PackedForest struct {
	// Base is the base mixing graph the forest was grown from.
	Base *mixgraph.Graph
	// Demand is the requested droplet demand D.
	Demand int
	// Tasks is the task arena in topological (creation) order; a task's
	// index is its ID. Tasks of one component tree are contiguous.
	Tasks []PTask
	// TreeStart[i] is the index of the first task of tree i+1; tree i+1
	// spans Tasks[TreeStart[i] : TreeStart[i+1]] (the last tree runs to
	// len(Tasks)). Tasks are created bottom-up, so each tree's root is the
	// last task of its span (Root).
	TreeStart []int32
}

// NumTrees returns |F|, the number of component trees.
func (f *PackedForest) NumTrees() int { return len(f.TreeStart) }

// Span returns the task range [lo, hi) of tree k+1.
func (f *PackedForest) Span(k int) (lo, hi int32) {
	lo, hi = f.TreeStart[k], int32(len(f.Tasks))
	if k+1 < len(f.TreeStart) {
		hi = f.TreeStart[k+1]
	}
	return lo, hi
}

// Root returns the root task of tree k+1, the last task of its span.
func (f *PackedForest) Root(k int) int32 {
	_, hi := f.Span(k)
	return hi - 1
}

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

// PackedBuilder grows a packed mixing forest incrementally, one component
// tree at a time, with the package's obtain recursion and a waste pool
// indexed by base-graph node ID. The zero value is usable after Reset; all
// internal arenas are retained across Reset calls.
type PackedBuilder struct {
	base *mixgraph.Graph
	f    PackedForest
	pool []poolFIFO // indexed by base-graph node ID
	// Mark's checkpoint; saved is empty when none was taken since Reset.
	markTasks, markTrees int
	saved                []poolFIFO
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
	b.saved = b.saved[:0]
	b.f.Base = base
	b.f.Demand = 0
	b.f.Tasks = b.f.Tasks[:0]
	b.f.TreeStart = b.f.TreeStart[:0]
	n := len(base.Nodes)
	if cap(b.pool) < n {
		b.pool = make([]poolFIFO, n)
	} else {
		b.pool = b.pool[:n]
		for i := range b.pool {
			b.pool[i] = poolFIFO{items: b.pool[i].items[:0]}
		}
	}
}

// Mark records the forest and its waste pool as they stand, for Rollback
// to return to. A later Mark replaces it; Reset discards it.
func (b *PackedBuilder) Mark() {
	b.markTasks, b.markTrees = len(b.f.Tasks), len(b.f.TreeStart)
	b.saved = append(b.saved[:0], b.pool...)
}

// Rollback drops every tree added since the last Mark. The arena, the tree
// starts and the FIFOs only append, so cutting each back to its marked
// length (and head) restores it exactly, even after it moved to a larger
// array, which it keeps. No task below the mark is ever written again.
func (b *PackedBuilder) Rollback() {
	if len(b.saved) == 0 {
		panic("forest: Rollback without a Mark since the last Reset")
	}
	b.f.Tasks = b.f.Tasks[:b.markTasks]
	b.f.TreeStart = b.f.TreeStart[:b.markTrees]
	for i, q := range b.saved {
		b.pool[i] = poolFIFO{items: b.pool[i].items[:len(q.items)], head: q.head}
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
	b.f.Demand = 2 * len(b.f.TreeStart)
	return &b.f
}

// AddTree appends the next component tree (two droplets of capacity) and
// returns its root task index.
func (b *PackedBuilder) AddTree() int32 {
	b.f.TreeStart = append(b.f.TreeStart, int32(len(b.f.Tasks)))
	rootNode := b.base.Root
	l := b.obtain(rootNode.Children[0])
	r := b.obtain(rootNode.Children[1])
	return b.newTask(rootNode, l, r)
}

// obtain is the package's recursive procedure: pooled spare first, fresh
// input droplet for leaves, otherwise a new mix over the children (whose
// spare output joins the pool). A spare made before the current tree's
// first task is a cross-tree reuse.
func (b *PackedBuilder) obtain(id int32) PSource {
	if t, ok := b.pool[id].pop(); ok {
		return TaskSource(t)
	}
	v := &b.base.Nodes[id]
	if v.IsLeaf() {
		return InputSource(v.Fluid)
	}
	l := b.obtain(v.Children[0])
	r := b.obtain(v.Children[1])
	t := b.newTask(v, l, r)
	b.pool[id].push(t)
	return TaskSource(t)
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
	for k, id := range f.Base.Nodes[t.Base].Children {
		c, src := &f.Base.Nodes[id], t.In[k]
		if !(c.IsLeaf() && src == InputSource(c.Fluid) ||
			!c.IsLeaf() && src >= 0 && int(src) < i && f.Tasks[src].Base == id) {
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
		Base:  v.ID,
		Level: v.PosLevel,
		In:    [2]PSource{l, r},
	})
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
// allocation of a constant number of backing arrays. Targets, reuse tags
// and consumers are derived from the tree spans and the sources naming
// each task, so a persistent batch's slab materializes as the forest stood
// when the batch committed. It runs once per plan whose pointer forms a
// caller asks for.
func (f *PackedForest) Materialize() *Forest {
	n := len(f.Tasks)
	out := &Forest{
		Base:   f.Base,
		Demand: f.Demand,
		Tasks:  make([]*Task, n),
		Trees:  make([]*Tree, f.NumTrees()),
	}
	tasks := make([]Task, n)
	// Two consumer slots per task, one per output.
	consArena := make([]*Task, 2*n)
	for i := range tasks {
		out.Tasks[i] = &tasks[i]
	}
	vecs := f.Base.Vectors()
	trees := make([]Tree, f.NumTrees())
	want := f.Base.Target.Vector()
	for k := range trees {
		lo, hi := f.Span(k)
		for i := lo; i < hi; i++ {
			pt := &f.Tasks[i]
			node := &f.Base.Nodes[pt.Base]
			t := &tasks[i]
			*t = Task{ID: int(i), Tree: k + 1, Base: node, Level: int(pt.Level), Vec: vecs[pt.Base],
				consumers: consArena[2*i : 2*i : 2*i+2]}
			if i == hi-1 {
				t.Targets = 2
			}
			for s, src := range pt.In {
				if src < 0 {
					t.In[s] = Source{Kind: Input, Fluid: int(src.Ref())}
					continue
				}
				p := &tasks[src]
				t.In[s] = Source{Kind: FromTask, Task: p, Reused: int32(src) < lo}
				p.consumers = append(p.consumers, t)
			}
		}
		trees[k] = Tree{Index: k + 1, Root: out.Tasks[hi-1], Tasks: out.Tasks[lo:hi:hi], Want: want}
		out.Trees[k] = &trees[k]
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
		TreeStart: make([]int32, len(f.Trees)),
	}
	for i, t := range f.Tasks {
		if len(t.consumers) > 2 {
			return nil, fmt.Errorf("forest: task %d has %d consumers, a mix-split has two outputs", i, len(t.consumers))
		}
		pt := &pf.Tasks[i]
		*pt = PTask{Base: t.Base.ID, Level: int8(t.Level)}
		for s, src := range t.In {
			if src.Kind == Input {
				pt.In[s] = InputSource(int32(src.Fluid))
			} else {
				pt.In[s] = TaskSource(int32(src.Task.ID))
			}
		}
	}
	for i, tree := range f.Trees {
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
// first on (the whole forest's for 0, else a persistent window starting a
// tree) without materializing it. A persistent window's waste is the
// pool's change: each of its tasks makes two droplets, its roots emit two
// each as targets, and each of its internal sources consumes one, made in
// the window or pooled before it. Inputs is written into the caller's
// slice (len >= fluid count), which the returned stats alias.
func (f *PackedForest) PackedStats(first int, inputs []int64) Stats {
	n := f.Base.Target.N()
	inputs = inputs[:n]
	for i := range inputs {
		inputs[i] = 0
	}
	before := f.TreesBefore(first)
	s := Stats{
		Trees:   f.NumTrees() - before,
		Mixes:   len(f.Tasks) - first,
		Inputs:  inputs,
		Targets: 2 * (f.NumTrees() - before),
	}
	internal := 0
	for k := before; k < f.NumTrees(); k++ {
		lo, hi := f.Span(k)
		for _, t := range f.Tasks[lo:hi] {
			for _, src := range t.In {
				if src < 0 {
					inputs[src.Ref()]++
					s.InputTotal++
					continue
				}
				internal++
				if int32(src) < lo {
					s.Reuses++
				}
			}
		}
	}
	s.Waste = int64(2*s.Mixes - s.Targets - internal)
	return s
}
