// Package forest implements the mixing forest of Roy et al. (DAC 2014), the
// paper's core contribution: a mix-split task graph that meets a demand of
// D > 2 droplets of one target mixture by recycling the waste droplets of a
// base mixing tree instead of re-running the tree from scratch.
//
// Given a base graph T1 (built by MM, RMA or MTCS) the forest holds
// ⌈D/2⌉ component trees T1, T2, ..., each contributing two target droplets
// (the two outputs of its root mix). Component tree construction follows the
// recursive procedure reverse-engineered from Figs. 1-3 of the paper and
// verified against every number printed there: to obtain a droplet
// equivalent to base node v,
//
//  1. consume a pooled waste droplet tagged v if one exists,
//  2. else dispense a fresh input droplet if v is a leaf,
//  3. else mix obtain(left(v)) with obtain(right(v)); the second output of
//     the new mix-split joins the pool tagged v.
//
// For D = p·2^d (MM base) every intermediate droplet is used and the total
// waste W is zero. The PackedBuilder is incremental, which is what makes
// the engine demand-driven: component trees can be appended later and reuse
// whatever waste the earlier trees left in the pool.
package forest

import (
	"errors"
	"sync/atomic"

	"repro/internal/mixgraph"
	"repro/internal/ratio"
)

// SourceKind discriminates the origins of a task's input droplets.
type SourceKind int8

const (
	// Input is a fresh unit droplet dispensed from a fluid reservoir.
	Input SourceKind = iota
	// FromTask is an output droplet of another mix-split task.
	FromTask
)

// Source describes one input droplet of a mix-split task.
type Source struct {
	Kind  SourceKind
	Fluid int   // reservoir fluid index, for Kind == Input
	Task  *Task // producing task, for Kind == FromTask
	// Reused marks a cross-tree waste reuse: the droplet was left in the
	// pool by an earlier component tree (a brown node in the paper's
	// figures).
	Reused bool
}

// Vec returns the exact CF vector of the source droplet.
func (s Source) Vec(n int) ratio.Vector {
	if s.Kind == Input {
		return ratio.Unit(s.Fluid, n)
	}
	return s.Task.Vec
}

// words writes the source droplet's canonical CF numerators into dst
// (len(dst) must equal the fluid count) and returns the exponent: Vec
// without the allocation. The source must already be known valid.
func (s Source) words(dst []int64) uint {
	if s.Kind == Input {
		clear(dst)
		dst[s.Fluid] = 1
		return 0
	}
	return s.Task.Vec.NumsInto(dst)
}

// Task is one (1:1) mix-split step of the forest.
type Task struct {
	// ID indexes Forest.Tasks; tasks are topologically ordered (producers
	// before consumers).
	ID int
	// Tree is the 1-based component-tree index (the i of the paper's
	// m_{i,j} labels).
	Tree int
	// Base is the base-graph node this task instantiates; the task produces
	// droplets with that node's vector (Vec).
	Base *mixgraph.Node
	// Level is the paper's positional level of the mix (root tasks sit at
	// level d, their children at d-1, and so on).
	Level int
	// In are the two input droplets.
	In [2]Source
	// Vec is the task's exact output CF vector.
	Vec ratio.Vector
	// Targets is the number of output droplets emitted as target mixture
	// droplets: 2 for component-tree roots, 0 otherwise.
	Targets int

	consumers []*Task
}

// Consumers returns the tasks consuming this task's output droplets.
func (t *Task) Consumers() []*Task { return t.consumers }

// FreeOutputs returns how many of the task's two output droplets are neither
// targets nor consumed by other tasks — i.e. its final waste contribution.
func (t *Task) FreeOutputs() int { return 2 - t.Targets - len(t.consumers) }

// InternalInputs counts input droplets that come from other tasks (0, 1, 2).
// The SRS scheduler uses this for its Type-A/B/C classification.
func (t *Task) InternalInputs() int {
	n := 0
	for _, s := range t.In {
		if s.Kind == FromTask {
			n++
		}
	}
	return n
}

// Tree is one component mixing tree of the forest.
type Tree struct {
	// Index is the 1-based position (T1 is the base-tree instantiation).
	Index int
	// Root is the tree's root task; its two outputs are target droplets.
	Root *Task
	// Tasks lists the tasks created while building this tree, in creation
	// (bottom-up, left-to-right) order; the root is last.
	Tasks []*Task
	// Want is the CF vector the tree's root must produce. Single-target
	// forests set it to the base target's vector; multi-target forests to
	// the tree's own target.
	Want ratio.Vector
}

// Forest is a complete mixing forest for one target mixture.
type Forest struct {
	// Base is the base mixing graph the forest was grown from.
	Base *mixgraph.Graph
	// Bases lists every target's base graph of a multi-target forest
	// (BuildMulti), Base first: its trees' tasks instantiate nodes of
	// each. Nil for a single-target forest.
	Bases []*mixgraph.Graph
	// Demand is the requested number of target droplets D.
	Demand int
	// Trees are the component trees T1..T|F|, |F| = ⌈D/2⌉.
	Trees []*Tree
	// Tasks lists every mix-split task in topological order.
	Tasks []*Task
}

// Target returns the target mixture ratio.
func (f *Forest) Target() ratio.Ratio { return f.Base.Target }

// ErrBadDemand reports a non-positive droplet demand.
var ErrBadDemand = errors.New("forest: demand must be positive")

// buildCount counts full from-scratch Build invocations since process start.
var buildCount atomic.Int64

// BuildCount returns the number of full from-scratch Build calls performed
// so far in this process. It exists so performance tests can assert that hot
// paths (the storage-demand scan in internal/stream, the plan cache in
// internal/plancache) reuse incremental builders and cached plans instead of
// rebuilding forests; compare deltas, not absolutes.
func BuildCount() int64 { return buildCount.Load() }

// Build constructs the mixing forest meeting demand D: ⌈D/2⌉ component
// trees grown by a PackedBuilder and materialized. For odd D the last tree
// still emits two droplets; Stats reports the surplus. A demand whose
// forest could overflow the packed arena's int32 task indices fails with
// ErrArenaOverflow, and a non-positive one with ErrBadDemand.
func Build(base *mixgraph.Graph, demand int) (*Forest, error) {
	pf, err := BuildPacked(new(PackedBuilder), base, demand)
	if err != nil {
		return nil, err
	}
	return pf.Materialize(), nil
}
