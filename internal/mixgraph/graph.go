// Package mixgraph provides the (1:1) mix-split task-graph substrate shared
// by all base mixing algorithms (MM, RMA, MTCS) of Roy et al., DAC 2014.
//
// A Graph describes one pass of mixture preparation: leaf nodes dispense unit
// droplets of input fluids at CF 100%, and every Mix node merges the output
// droplets of its two children and splits the result into two identical unit
// droplets. Each node therefore offers exactly two output droplets. In a
// plain mixing tree (MM, RMA) one output of every interior node feeds its
// parent and the other is waste; algorithms with common-subtree sharing
// (MTCS) may consume both outputs, making the graph a DAG. The root's two
// outputs are the pass's two target droplets.
package mixgraph

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ratio"
)

// Kind discriminates graph nodes.
type Kind int8

const (
	// Leaf dispenses a fresh unit droplet of one input fluid.
	Leaf Kind = iota
	// Mix is a (1:1) mix-split operation on two child droplets.
	Mix
)

func (k Kind) String() string {
	switch k {
	case Leaf:
		return "leaf"
	case Mix:
		return "mix"
	default:
		return fmt.Sprintf("Kind(%d)", int8(k))
	}
}

// Node is one vertex of a mix-split graph. Nodes are created through a
// Builder and are immutable after Build. A built graph keeps its nodes in
// one slice (see Builder). Every cached plan pins its base graph, so a
// Node holds structure only and links only to its children: 56 bytes, two
// pointers for the garbage collector to scan. Its CF vector follows from
// the wiring and the leaf fluids (a mix is the average of its children),
// so it is derived on demand by Graph.Vectors.
type Node struct {
	// ID is the node's index in Graph.Nodes (children precede parents).
	ID int
	// Fluid is the input-fluid index for Leaf nodes (0-based), -1 for Mix.
	Fluid int
	// Children are the two droplet sources of a Mix node (nil for leaves).
	// Each child reference consumes exactly one of the child's two outputs.
	Children [2]*Node
	// Level is the structural level: leaves at level 0 and a mix at one more
	// than its highest child, i.e. the longest mix chain below the node.
	// The root of a depth-d graph is at level d.
	Level int
	// PosLevel is the paper's positional level, assigned top-down: the root
	// at Level d, every child one below its parent. It differs from Level
	// for shallow subtrees hanging high in the tree (e.g. a leaf-leaf mix
	// directly under the root has Level 1 but PosLevel d-1). For shared
	// nodes (two parents) the smaller candidate — the more urgent one — is
	// kept. Scheduling policies use PosLevel; set by Builder.Build.
	PosLevel int
	// Kind says whether the node dispenses an input droplet or mixes.
	Kind Kind

	nparents int8 // how many of the node's outputs mixes consume
}

// IsLeaf reports whether n dispenses an input droplet.
func (n *Node) IsLeaf() bool { return n.Kind == Leaf }

// outputs returns how many droplets the node offers: a leaf dispenses one
// unit droplet, a mix-split yields two.
func (n *Node) outputs() int {
	if n.Kind == Leaf {
		return 1
	}
	return 2
}

// Graph is a complete one-pass mix-split task graph for a target ratio.
type Graph struct {
	// Target is the mixture the pass prepares.
	Target ratio.Ratio
	// Root is the mix node whose two outputs are the target droplets.
	Root *Node
	// Nodes lists every node in topological order (children first).
	Nodes []*Node
	// Algorithm names the base algorithm that built the graph ("MM", ...).
	Algorithm string

	// Memoised structural fingerprint (see fingerprint.go), computed at
	// most once per graph and safe under concurrent readers. The atomics
	// also make Graph uncopyable under `go vet` (copylocks), which is
	// correct: every holder must share the one memo.
	fp     atomic.Uint64
	fpDone atomic.Bool
	// rootOK memoises a proof that the root's vector is the target's (see
	// RootIsTarget).
	rootOK atomic.Bool
}

// Builder constructs a Graph incrementally. The zero value is not usable;
// call NewBuilder.
//
// Nodes live in a node arena grown in chunks, so that a node once handed
// out never moves. The first chunk holds exactly the MM tree of the target
// (one leaf per set bit of the parts, one mix fewer), so an MM build fills
// it exactly and Build keeps it; any other size is copied into an
// exact-size arena by Build. Every cached plan pins its base graph, so a
// graph retains no spare capacity.
type Builder struct {
	target ratio.Ratio
	chunks [][]Node // the node arena: full chunks, then the one being filled
	count  int      // nodes created so far
}

// NewBuilder returns a builder for a mix-split graph targeting r.
func NewBuilder(r ratio.Ratio) *Builder {
	return &Builder{target: r}
}

// node appends a zero node to the arena, numbered in creation order.
func (b *Builder) node() *Node {
	last := len(b.chunks) - 1
	if last < 0 || len(b.chunks[last]) == cap(b.chunks[last]) {
		size := b.count // doubling
		if last < 0 {
			size = mmNodes(b.target)
		}
		b.chunks = append(b.chunks, make([]Node, 0, size))
		last++
	}
	c := b.chunks[last][:len(b.chunks[last])+1]
	b.chunks[last] = c
	nd := &c[len(c)-1]
	nd.ID = b.count
	b.count++
	return nd
}

// mmNodes is the node count of r's MM tree: one leaf per set bit of the
// parts and one mix fewer (at least one node).
func mmNodes(r ratio.Ratio) int {
	leaves := 0
	for i := 0; i < r.N(); i++ {
		leaves += bits.OnesCount64(uint64(r.Part(i)))
	}
	return max(2*leaves-1, 1)
}

// at returns the arena node with the given ID, nil if there is none.
func (b *Builder) at(id int) *Node {
	if id < 0 {
		return nil
	}
	for _, c := range b.chunks {
		if id < len(c) {
			return &c[id]
		}
		id -= len(c)
	}
	return nil
}

// Leaf adds a fresh input-droplet node for the given fluid index.
func (b *Builder) Leaf(fluid int) *Node {
	if fluid < 0 || fluid >= b.target.N() {
		panic(fmt.Sprintf("mixgraph: leaf fluid %d out of range [0,%d)", fluid, b.target.N()))
	}
	n := b.node()
	n.Kind = Leaf
	n.Fluid = fluid
	return n
}

// Mix adds a (1:1) mix-split node over droplets from l and r. Each call
// consumes one output of each operand; an operand with both outputs already
// consumed, or one made by another builder, panics (builders control their
// own operand reuse).
func (b *Builder) Mix(l, r *Node) *Node {
	for _, c := range [2]*Node{l, r} {
		if c == nil {
			panic("mixgraph: Mix with nil child")
		}
		if b.at(c.ID) != c {
			panic(fmt.Sprintf("mixgraph: Mix operand %d made by another builder", c.ID))
		}
		if int(c.nparents) >= c.outputs() || l == r && int(c.nparents)+2 > c.outputs() {
			panic(fmt.Sprintf("mixgraph: node %d already has all outputs consumed", c.ID))
		}
	}
	n := b.node()
	n.Kind = Mix
	n.Fluid = -1
	n.Children = [2]*Node{l, r}
	n.Level = max(l.Level, r.Level) + 1
	l.nparents++
	r.nparents++
	return n
}

// Build finalises the graph with the given root and verifies every
// structural invariant. The builder must not be reused afterwards, and the
// nodes it handed out are scratch: the graph's own nodes are g.Nodes.
func (b *Builder) Build(root *Node, algorithm string) (*Graph, error) {
	if root != nil && b.at(root.ID) != root {
		return nil, fmt.Errorf("mixgraph: node ID %d inconsistent with node list", root.ID)
	}
	g := &Graph{Target: b.target, Nodes: b.flatten(), Algorithm: algorithm}
	b.chunks = nil
	if root != nil {
		g.Root = g.Nodes[root.ID]
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g.assignPosLevels()
	return g, nil
}

// flatten returns the nodes in creation order over an exact-size arena. A
// builder whose one chunk filled up exactly already holds them; otherwise
// the nodes are copied into a fresh arena and every child link is
// re-pointed by ID.
func (b *Builder) flatten() []*Node {
	var arena []Node
	if len(b.chunks) == 1 && len(b.chunks[0]) == cap(b.chunks[0]) {
		arena = b.chunks[0]
	} else {
		arena = make([]Node, 0, b.count)
		for _, c := range b.chunks {
			arena = append(arena, c...)
		}
		for i := range arena {
			nd := &arena[i]
			if nd.Kind == Mix {
				nd.Children = [2]*Node{&arena[nd.Children[0].ID], &arena[nd.Children[1].ID]}
			}
		}
	}
	nodes := make([]*Node, len(arena))
	for i := range arena {
		nodes[i] = &arena[i]
	}
	return nodes
}

// assignPosLevels computes positional levels top-down from the root.
func (g *Graph) assignPosLevels() {
	for _, n := range g.Nodes {
		n.PosLevel = 0
	}
	g.Root.PosLevel = g.Root.Level
	// Nodes are topologically ordered (children before parents), so a
	// reverse sweep sees every parent before its children.
	for i := len(g.Nodes) - 1; i >= 0; i-- {
		n := g.Nodes[i]
		if n.Kind != Mix {
			continue
		}
		for _, c := range n.Children {
			if c.PosLevel == 0 || n.PosLevel-1 < c.PosLevel {
				c.PosLevel = n.PosLevel - 1
			}
		}
	}
}

// Validation errors.
var (
	ErrNoRoot       = errors.New("mixgraph: nil root")
	ErrRootConsumed = errors.New("mixgraph: root outputs must be targets, not inputs to other mixes")
	ErrRootNotMix   = errors.New("mixgraph: root must be a mix node")
	ErrWrongTarget  = errors.New("mixgraph: root CF vector does not match the target ratio")
	ErrUnreachable  = errors.New("mixgraph: node unreachable from root")
	ErrBadTopology  = errors.New("mixgraph: nodes not in topological order")
	ErrOverConsumed = errors.New("mixgraph: node output consumed more than twice")
	ErrBadLevel     = errors.New("mixgraph: mix level is not one above its highest child")
)

// Validate checks the full set of graph invariants: topological node order,
// output-consumption bounds, structural levels, reachability of every node
// and root identity with the target ratio, whose vector it propagates from
// the leaves in scratch. Every base-graph build runs it, so its bookkeeping
// is borrowed from a pool and a warm call allocates nothing.
func (g *Graph) Validate() error {
	if g.Root == nil {
		return ErrNoRoot
	}
	if g.Root.Kind != Mix {
		return ErrRootNotMix
	}
	if g.Root.nparents != 0 {
		return ErrRootConsumed
	}
	sc := validatePool.Get().(*validateScratch)
	defer sc.release()
	reach := slices.Grow(sc.reach[:0], len(g.Nodes))[:len(g.Nodes)]
	clear(reach)
	// Each unvisited mix pops one entry and pushes two, so the stack never
	// holds more than one entry per mix plus the root.
	stack := append(slices.Grow(sc.stack[:0], len(g.Nodes)+1), g.Root)
	sc.reach, sc.stack = reach, stack
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.ID < 0 || n.ID >= len(g.Nodes) || g.Nodes[n.ID] != n {
			return fmt.Errorf("mixgraph: node ID %d inconsistent with node list", n.ID)
		}
		if reach[n.ID] {
			continue
		}
		reach[n.ID] = true
		if n.Kind == Mix {
			stack = append(stack, n.Children[0], n.Children[1])
		}
	}
	for i, n := range g.Nodes {
		if !reach[i] {
			return fmt.Errorf("%w: node %d", ErrUnreachable, i)
		}
		if int(n.nparents) > n.outputs() {
			return fmt.Errorf("%w: node %d", ErrOverConsumed, i)
		}
		if n.Kind == Mix {
			for _, c := range n.Children {
				if c.ID >= n.ID {
					return fmt.Errorf("%w: mix %d before child %d", ErrBadTopology, n.ID, c.ID)
				}
			}
			if want := max(n.Children[0].Level, n.Children[1].Level) + 1; n.Level != want {
				return fmt.Errorf("%w: node %d level %d, want %d", ErrBadLevel, n.ID, n.Level, want)
			}
		}
	}
	// Every node is reachable and after its children, so the vectors
	// propagate.
	sc.words = slices.Grow(sc.words[:0], g.ScratchWords())
	if !g.rootIsTarget(sc.words[:g.ScratchWords()]) {
		return fmt.Errorf("%w: root %v, target %v", ErrWrongTarget, g.Vectors()[g.Root.ID], g.Target.Vector())
	}
	return nil
}

// validateScratch is Validate's bookkeeping: reach marks, the walk's stack
// and the vector words of the root proof.
type validateScratch struct {
	reach []bool
	stack []*Node
	words []int64
}

var validatePool = sync.Pool{New: func() any { return new(validateScratch) }}

// release returns sc to the pool with its stack cleared, so a pooled
// buffer pins no graph.
func (sc *validateScratch) release() {
	clear(sc.stack[:cap(sc.stack)])
	validatePool.Put(sc)
}

// ScratchWords is the scratch length RootIsTarget needs: VectorWords' words
// and the target's.
func (g *Graph) ScratchWords() int {
	return (len(g.Nodes) + 1) * (g.Target.N() + 1)
}

// RootIsTarget reports whether the root's CF vector is the target's, its
// parts over 2^depth reduced. The first call that finds it so propagates
// every node's vector into scratch, which must hold ScratchWords words;
// graphs are immutable after Build, so the proof is then memoised in one
// atomic, like Fingerprint's hash. A failure is not memoised.
func (g *Graph) RootIsTarget(scratch []int64) bool {
	if g.rootOK.Load() {
		return true
	}
	ok := g.rootIsTarget(scratch)
	if ok {
		g.rootOK.Store(true)
	}
	return ok
}

// rootIsTarget is RootIsTarget without the memo.
func (g *Graph) rootIsTarget(scratch []int64) bool {
	k := g.Target.N()
	g.VectorWords(scratch)
	root, target := scratch[g.Root.ID*(k+1):][:k+1], scratch[len(g.Nodes)*(k+1):][:k]
	for i := range target {
		target[i] = g.Target.Part(i)
	}
	exp := ratio.ReduceWords(target, uint(g.Target.Depth()))
	return int64(exp) == root[k] && slices.Equal(root[:k], target)
}

// Vectors returns every node's exact CF vector, indexed by node ID: a leaf
// is the unit vector of its fluid and a mix the average of its children.
// Each call propagates them afresh into one new word slab; the graph keeps
// none, so a caller that reads them holds them only as long as it needs
// them.
func (g *Graph) Vectors() []ratio.Vector {
	k := g.Target.N()
	words := make([]int64, len(g.Nodes)*k)
	out := make([]ratio.Vector, len(g.Nodes))
	for i, n := range g.Nodes {
		w := words[i*k : (i+1)*k : (i+1)*k]
		if n.Kind == Leaf {
			out[i] = ratio.UnitIn(w, n.Fluid)
			continue
		}
		out[i] = ratio.MixIn(w, out[n.Children[0].ID], out[n.Children[1].ID])
	}
	return out
}

// VectorWords is Vectors into caller-provided scratch, without boxing: with
// k the target's fluid count, node i's canonical CF numerators go to
// dst[i*(k+1):][:k] and its exponent to dst[i*(k+1)+k]. dst must hold at
// least len(g.Nodes)*(k+1) words, and children must precede parents (as
// Validate proves of every built graph).
func (g *Graph) VectorWords(dst []int64) {
	k := g.Target.N()
	for i, n := range g.Nodes {
		w := dst[i*(k+1):][:k+1]
		if n.Kind == Leaf {
			clear(w)
			w[n.Fluid] = 1
			continue
		}
		a, b := dst[n.Children[0].ID*(k+1):][:k+1], dst[n.Children[1].ID*(k+1):][:k+1]
		w[k] = int64(ratio.MixWordsInto(w[:k], a[:k], uint(a[k]), b[:k], uint(b[k])))
	}
}
