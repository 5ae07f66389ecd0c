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
	"math"
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
// Builder and are immutable after Build. A built graph keeps its nodes by
// value in one array and links them by ID, so a node holds no pointer for
// the garbage collector to scan: 20 bytes of structure, which every cached
// plan pins with its base graph. Its CF vector follows from the wiring and
// the leaf fluids (a mix is the average of its children), so it is derived
// on demand by Graph.Vectors.
type Node struct {
	// ID is the node's index in Graph.Nodes (children precede parents).
	ID int32
	// Fluid is the input-fluid index for Leaf nodes (0-based), -1 for Mix.
	Fluid int32
	// Children are the node IDs of a Mix node's two droplet sources (-1
	// for leaves). Each child reference consumes exactly one of the
	// child's two outputs.
	Children [2]int32
	// Level is the structural level: leaves at level 0 and a mix at one more
	// than its highest child, i.e. the longest mix chain below the node.
	// The root of a depth-d graph is at level d.
	Level int8
	// PosLevel is the paper's positional level, assigned top-down: the root
	// at Level d, every child one below its parent. It differs from Level
	// for shallow subtrees hanging high in the tree (e.g. a leaf-leaf mix
	// directly under the root has Level 1 but PosLevel d-1). For shared
	// nodes (two parents) the smaller candidate — the more urgent one — is
	// kept. Scheduling policies use PosLevel; set by Builder.Build.
	PosLevel int8
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
	// Root is the mix node whose two outputs are the target droplets; it
	// points into Nodes, which never moves after Build.
	Root *Node
	// Nodes holds every node in topological order (children first),
	// indexed by ID.
	Nodes []Node
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
// Leaf and Mix append to one slice, borrowed from a pool, and hand out
// node IDs; Build copies the nodes once into an exact-size array, since
// every cached plan pins its base graph.
type Builder struct {
	target ratio.Ratio
	buf    *[]Node // the pooled slice nodes was taken from
	nodes  []Node  // created so far, indexed by ID
}

var nodesPool = sync.Pool{New: func() any { return new([]Node) }}

// NewBuilder returns a builder for a mix-split graph targeting r.
func NewBuilder(r ratio.Ratio) *Builder {
	buf := nodesPool.Get().(*[]Node)
	return &Builder{target: r, buf: buf, nodes: slices.Grow((*buf)[:0], mmNodes(r))}
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

// add appends n, numbered in creation order, and returns its ID.
func (b *Builder) add(n Node) int32 {
	n.ID = int32(len(b.nodes))
	b.nodes = append(b.nodes, n)
	return n.ID
}

// Leaf adds a fresh input-droplet node for the given fluid index and
// returns its ID.
func (b *Builder) Leaf(fluid int) int32 {
	if fluid < 0 || fluid >= b.target.N() {
		panic(fmt.Sprintf("mixgraph: leaf fluid %d out of range [0,%d)", fluid, b.target.N()))
	}
	return b.add(Node{Kind: Leaf, Fluid: int32(fluid), Children: [2]int32{-1, -1}})
}

// Mix adds a (1:1) mix-split node over droplets from nodes l and r and
// returns its ID. Each call consumes one output of each operand; an
// operand with both outputs already consumed, or an ID this builder has not
// handed out, panics (builders control their own operand reuse).
func (b *Builder) Mix(l, r int32) int32 {
	for _, c := range [2]int32{l, r} {
		if c < 0 || int(c) >= len(b.nodes) {
			panic(fmt.Sprintf("mixgraph: Mix operand %d out of range [0,%d)", c, len(b.nodes)))
		}
		n := &b.nodes[c]
		if int(n.nparents) >= n.outputs() || l == r && int(n.nparents)+2 > n.outputs() {
			panic(fmt.Sprintf("mixgraph: node %d already has all outputs consumed", c))
		}
	}
	ln, rn := &b.nodes[l], &b.nodes[r]
	level := max(ln.Level, rn.Level)
	if level == math.MaxInt8 {
		panic(fmt.Sprintf("mixgraph: mix above level %d", level))
	}
	ln.nparents++
	rn.nparents++
	return b.add(Node{Kind: Mix, Fluid: -1, Children: [2]int32{l, r}, Level: level + 1})
}

// Build finalises the graph with the given root node ID and verifies every
// structural invariant. The builder must not be reused afterwards.
func (b *Builder) Build(root int32, algorithm string) (*Graph, error) {
	g := &Graph{Target: b.target, Nodes: make([]Node, len(b.nodes)), Algorithm: algorithm}
	copy(g.Nodes, b.nodes)
	*b.buf = b.nodes[:0]
	nodesPool.Put(b.buf)
	b.buf, b.nodes = nil, nil
	if root >= 0 && int(root) < len(g.Nodes) {
		g.Root = &g.Nodes[root]
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g.assignPosLevels()
	return g, nil
}

// assignPosLevels computes positional levels top-down from the root.
func (g *Graph) assignPosLevels() {
	for i := range g.Nodes {
		g.Nodes[i].PosLevel = 0
	}
	g.Root.PosLevel = g.Root.Level
	// Nodes are topologically ordered (children before parents), so a
	// reverse sweep sees every parent before its children.
	for i := len(g.Nodes) - 1; i >= 0; i-- {
		n := &g.Nodes[i]
		if n.Kind != Mix {
			continue
		}
		for _, id := range n.Children {
			c := &g.Nodes[id]
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

// Validate checks the full set of graph invariants: node IDs matching
// their indices, topological node order, output-consumption bounds,
// structural levels, reachability of every node and root identity with the
// target ratio, whose vector it propagates from the leaves in scratch.
// Every base-graph build runs it, so its bookkeeping is borrowed from a
// pool and a warm call allocates nothing.
func (g *Graph) Validate() error {
	if g.Root == nil {
		return ErrNoRoot
	}
	if id := g.Root.ID; id < 0 || int(id) >= len(g.Nodes) || &g.Nodes[id] != g.Root {
		return fmt.Errorf("mixgraph: root ID %d inconsistent with node list", id)
	}
	if g.Root.Kind != Mix {
		return ErrRootNotMix
	}
	if g.Root.nparents != 0 {
		return ErrRootConsumed
	}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if int(n.ID) != i {
			return fmt.Errorf("mixgraph: node ID %d inconsistent with node list", n.ID)
		}
		if int(n.nparents) > n.outputs() {
			return fmt.Errorf("%w: node %d", ErrOverConsumed, i)
		}
		if n.Kind != Mix {
			continue
		}
		for _, c := range n.Children {
			if c < 0 || c >= n.ID {
				return fmt.Errorf("%w: mix %d before child %d", ErrBadTopology, n.ID, c)
			}
		}
		if want := max(g.Nodes[n.Children[0]].Level, g.Nodes[n.Children[1]].Level) + 1; n.Level != want {
			return fmt.Errorf("%w: node %d level %d, want %d", ErrBadLevel, n.ID, n.Level, want)
		}
	}
	// Every child precedes its parent, so the walk only meets valid IDs.
	sc := validatePool.Get().(*validateScratch)
	defer validatePool.Put(sc)
	reach := slices.Grow(sc.reach[:0], len(g.Nodes))[:len(g.Nodes)]
	clear(reach)
	// Each unvisited mix pops one entry and pushes two, so the stack never
	// holds more than one entry per mix plus the root.
	stack := append(slices.Grow(sc.stack[:0], len(g.Nodes)+1), g.Root.ID)
	sc.reach = reach
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reach[id] {
			continue
		}
		reach[id] = true
		if n := &g.Nodes[id]; n.Kind == Mix {
			stack = append(stack, n.Children[0], n.Children[1])
		}
	}
	sc.stack = stack
	if i := slices.Index(reach, false); i >= 0 {
		return fmt.Errorf("%w: node %d", ErrUnreachable, i)
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
// of node IDs and the vector words of the root proof.
type validateScratch struct {
	reach []bool
	stack []int32
	words []int64
}

var validatePool = sync.Pool{New: func() any { return new(validateScratch) }}

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
	root, target := scratch[int(g.Root.ID)*(k+1):][:k+1], scratch[len(g.Nodes)*(k+1):][:k]
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
	for i := range g.Nodes {
		n := &g.Nodes[i]
		w := words[i*k : (i+1)*k : (i+1)*k]
		if n.Kind == Leaf {
			out[i] = ratio.UnitIn(w, int(n.Fluid))
			continue
		}
		out[i] = ratio.MixIn(w, out[n.Children[0]], out[n.Children[1]])
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
	for i := range g.Nodes {
		n := &g.Nodes[i]
		w := dst[i*(k+1):][:k+1]
		if n.Kind == Leaf {
			clear(w)
			w[n.Fluid] = 1
			continue
		}
		a, b := dst[int(n.Children[0])*(k+1):][:k+1], dst[int(n.Children[1])*(k+1):][:k+1]
		w[k] = int64(ratio.MixWordsInto(w[:k], a[:k], uint(a[k]), b[:k], uint(b[k])))
	}
}
