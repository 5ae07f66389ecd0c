// Package mtcs reconstructs the MTCS mixing algorithm of Kumar et al.
// ("Efficient Mixture Preparation on Digital Microfluidic Biochips", IEEE
// DDECS 2013), the reagent-efficient base mixing algorithm of the DAC 2014
// droplet-streaming paper.
//
// The DAC 2014 paper uses MTCS as a black box characterised by lower input
// usage than MM (Table 2: e.g. 15 vs. 17 droplets per pass for the PCR
// master-mix at L=256). This package reconstructs that behaviour as "MM with
// common-subtree sharing":
//
//  1. an MM-style bit-decomposition tree shape is planned with the pool at
//     every level sorted by CF vector, so identical sub-mixtures become
//     siblings and recur as identical subtrees;
//  2. the shape is instantiated top-down with memoisation: when a needed
//     sub-mixture was already produced by an earlier mix whose second output
//     droplet is still unconsumed, that spare droplet is used instead of
//     rebuilding the subtree.
//
// Both split outputs of a shared mix are consumed in-pass, so the result is
// a DAG rather than a tree, with strictly fewer leaves and mix-splits than
// MM whenever the ratio contains repeated sub-mixtures (e.g. several fluids
// with equal parts). See DESIGN.md §4 for the substitution rationale.
package mtcs

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"repro/internal/minmix"
	"repro/internal/mixgraph"
	"repro/internal/ratio"
)

// Name is the algorithm identifier used across the repository.
const Name = "MTCS"

// shape is a planned (not yet instantiated) mixing-tree node. Shapes live
// in one slice and refer to each other by index.
type shape struct {
	fluid    int // >= 0 for a leaf
	children [2]int32
	vec      ratio.Vector // over the plan's word slab
	key      []byte       // vec.Key()'s bytes, in the plan's key slab
	class    int32        // shapes with equal vectors share a class
}

// Build constructs the MTCS mixing DAG for the target ratio. Its planning
// and instancing state is pooled scratch; the graph is the only allocation
// a build keeps.
func Build(target ratio.Ratio) (*mixgraph.Graph, error) {
	r := target.Normalized()
	d := r.Depth()
	if r.N() < 2 || d == 0 {
		return nil, fmt.Errorf("mtcs: ratio %v needs no mixing", target)
	}
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	classes, err := sc.planShape(r)
	if err != nil {
		return nil, err
	}
	in := &sc.instance
	in.b = mixgraph.NewBuilder(target)
	in.top = slices.Grow(in.top[:0], classes)[:classes]
	clear(in.top)
	in.spares, in.below = in.spares[:0], in.below[:0]
	// The root is the last shape planned.
	return in.b.Build(in.need(int32(len(in.shapes)-1), true), Name)
}

// scratch is one Build's transient state: the instance, whose shapes are
// the plan, and the plan's word and key slabs, level pool and class order.
// Every cold MTCS base-graph build needs one, so they are pooled.
type scratch struct {
	instance
	words       []int64
	keys        []byte
	pool, order []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// release returns sc to the pool without the builder, whose node buffer
// the graph's Build has already returned.
func (sc *scratch) release() {
	sc.b = nil
	scratchPool.Put(sc)
}

// instance instantiates a planned shape top-down with memoisation: a mix's
// second split output is spare, and a later need for the same vector
// takes the most recent spare of its class instead of rebuilding the
// subtree. Each class's spares form a stack threaded through spares and
// below.
type instance struct {
	b      *mixgraph.Builder
	shapes []shape
	top    []int32 // per class: 1 + index in spares of its last spare, 0 if none
	spares []int32 // node IDs
	below  []int32 // per spare: the top of its class before it was pushed
}

func (in *instance) need(i int32, isRoot bool) int32 {
	s := &in.shapes[i]
	if !isRoot {
		if t := in.top[s.class]; t > 0 {
			in.top[s.class] = in.below[t-1]
			return in.spares[t-1]
		}
	}
	if s.fluid >= 0 {
		return in.b.Leaf(s.fluid)
	}
	l := in.need(s.children[0], false)
	rn := in.need(s.children[1], false)
	m := in.b.Mix(l, rn)
	if !isRoot {
		// The second split output is spare: offer it for sharing.
		in.spares = append(in.spares, m)
		in.below = append(in.below, in.top[s.class])
		in.top[s.class] = int32(len(in.spares))
	}
	return m
}

// planShape builds the MM bit-decomposition shape with pools sorted by
// vector key, maximising adjacent identical sub-mixtures, into sc.shapes:
// the shapes in creation order, root last, with each shape's class set. It
// returns the number of classes.
func (sc *scratch) planShape(r ratio.Ratio) (int, error) {
	d, n := r.Depth(), r.N()
	size := 2*int(minmix.InputCount(r)) - 1 // the MM shape: one mix fewer than leaves
	shapes := slices.Grow(sc.shapes[:0], size)
	words := slices.Grow(sc.words[:0], size*n)[:size*n]
	// A key is "e<exp>" and ":<num>" per fluid; numerators at L=256 and
	// below take at most three digits, so the slab rarely grows.
	keys := slices.Grow(sc.keys[:0], size*(3+4*n))
	add := func(sh shape) int32 {
		start := len(keys)
		keys = sh.vec.AppendKey(keys)
		sh.key = keys[start:len(keys):len(keys)]
		shapes = append(shapes, sh)
		return int32(len(shapes) - 1)
	}
	// vec returns the next shape's CF words.
	vec := func() []int64 {
		i := len(shapes) * n
		return words[i : i+n : i+n]
	}
	byKey := func(a, b int32) int { return bytes.Compare(shapes[a].key, shapes[b].key) }
	// As in minmix, one buffer holds every level's pool and the level's
	// mixes overwrite its front half.
	pool := slices.Grow(sc.pool[:0], 2*n)
	for level := 1; level <= d; level++ {
		bit := uint(level - 1)
		for i := 0; i < n; i++ {
			if r.Part(i)>>bit&1 == 1 {
				pool = append(pool, add(shape{fluid: i, vec: ratio.UnitIn(vec(), i)}))
			}
		}
		if len(pool)%2 != 0 {
			return 0, fmt.Errorf("mtcs: internal error: odd pool (%d) at level %d for %v", len(pool), level, r)
		}
		// Sort by vector key so identical droplets pair with each other and
		// identical pairs recur as identical subtrees.
		slices.SortStableFunc(pool, byKey)
		for i := 0; i+1 < len(pool); i += 2 {
			l, rt := pool[i], pool[i+1]
			pool[i/2] = add(shape{
				fluid:    -1,
				children: [2]int32{l, rt},
				vec:      ratio.MixIn(vec(), shapes[l].vec, shapes[rt].vec),
			})
		}
		pool = pool[:len(pool)/2]
	}
	sc.shapes, sc.words, sc.keys, sc.pool = shapes, words, keys, pool
	if len(pool) != 1 {
		return 0, fmt.Errorf("mtcs: internal error: %d droplets remain for %v", len(pool), r)
	}
	// Shapes with equal keys (equal vectors) form one class, wherever in
	// the shape they sit.
	order := slices.Grow(sc.order[:0], len(shapes))[:len(shapes)]
	sc.order = order
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, byKey)
	classes := 0
	for k, i := range order {
		if k > 0 && !bytes.Equal(shapes[i].key, shapes[order[k-1]].key) {
			classes++
		}
		shapes[i].class = int32(classes)
	}
	return classes + 1, nil
}
