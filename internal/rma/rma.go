// Package rma reconstructs the RMA mixing algorithm of Roy et al.
// ("Layout-Aware Solution Preparation for Biochemical Analysis on a Digital
// Microfluidic Biochip", VLSID 2011), used by the DAC 2014 droplet-streaming
// paper as one of its three base mixing algorithms.
//
// The DAC 2014 paper uses RMA as a black box and characterises it only by the
// property that matters for droplet streaming: "RMA constructs a base mixing
// tree with a larger number of waste droplets compared to other mixing
// algorithms (MM, RSM, MTCS)", which makes RMA-seeded mixing forests the
// fastest streaming engines. This package reconstructs that behaviour with a
// top-down ratio-partitioning builder:
//
//   - A node holding a sub-ratio with sum 2^k splits it into two halves of
//     sum 2^(k-1) each (greedy largest-part-first; a single fluid's amount
//     may be divided across the halves).
//   - A half containing exactly one fluid becomes a pure input leaf,
//     whatever its amount — a unit droplet at CF 100% carries it.
//
// The resulting trees are valid mixing trees for the same target and use at
// least as many input droplets (and therefore produce at least as much
// single-pass waste) as MM trees; the surplus grows with ratio skew. See
// DESIGN.md §4 for the substitution rationale.
package rma

import (
	"fmt"

	"repro/internal/mixgraph"
	"repro/internal/ratio"
)

// Name is the algorithm identifier used across the repository.
const Name = "RMA"

// part is one fluid's share within a sub-ratio during partitioning.
type part struct {
	fluid  int
	amount int64
}

// Build constructs the RMA mixing tree for the target ratio.
func Build(target ratio.Ratio) (*mixgraph.Graph, error) {
	r := target.Normalized()
	d := r.Depth()
	if r.N() < 2 || d == 0 {
		return nil, fmt.Errorf("rma: ratio %v needs no mixing", target)
	}
	b := mixgraph.NewBuilder(target)
	parts := make([]part, 0, r.N())
	for i := 0; i < r.N(); i++ {
		parts = append(parts, part{fluid: i, amount: r.Part(i)})
	}
	for i := len(parts) - 1; i >= 0; i-- {
		rise(parts[i:])
	}
	root, err := build(b, parts, d)
	if err != nil {
		return nil, err
	}
	return b.Build(root, Name)
}

// before is the order halving fills the left half in: amount descending,
// fluid index ascending. Fluids are distinct within a sub-ratio, so it is
// a total order and every sub-ratio has exactly one sorted form.
func before(p, q part) bool {
	if p.amount != q.amount {
		return p.amount > q.amount
	}
	return p.fluid < q.fluid
}

// rise moves parts[0] right to its place; parts[1:] must be sorted.
func rise(parts []part) {
	for i := 1; i < len(parts) && before(parts[i], parts[i-1]); i++ {
		parts[i], parts[i-1] = parts[i-1], parts[i]
	}
}

// build returns the ID of a droplet node realising the sub-ratio `parts` (sum 2^k),
// which must be sorted by before. It works in place: the left half's build
// reorders parts freely, and the right half is re-sorted before use.
func build(b *mixgraph.Builder, parts []part, k int) (int32, error) {
	if len(parts) == 0 {
		return -1, fmt.Errorf("rma: internal error: empty sub-ratio")
	}
	if len(parts) == 1 {
		// A single-fluid half is satisfied by one pure unit droplet.
		return b.Leaf(parts[0].fluid), nil
	}
	if k == 0 {
		return -1, fmt.Errorf("rma: internal error: %d fluids left at scale 1", len(parts))
	}
	// When halve splits parts[j], its first share closes the left half and
	// its rest opens the right one. The split share is smaller than every
	// part before it, so the left half stays sorted; the rest may not be,
	// so it rises into place once the left half is built.
	j, rest := halve(parts, int64(1)<<uint(k-1))
	left, fluid := parts[:j], -1
	if rest > 0 {
		fluid = parts[j].fluid
		parts[j].amount -= rest
		left = parts[:j+1]
	}
	l, err := build(b, left, k-1)
	if err != nil {
		return -1, err
	}
	if rest > 0 {
		parts[j] = part{fluid: fluid, amount: rest}
		rise(parts[j:])
	}
	rn, err := build(b, parts[j:], k-1)
	if err != nil {
		return -1, err
	}
	return b.Mix(l, rn), nil
}

// halve splits a sorted sub-ratio into two halves of `half` units each,
// greedily assigning the largest parts first and splitting one fluid
// across the boundary if needed. The left half is parts[:j] when rest is
// 0; otherwise it is parts[:j] plus amount-rest of parts[j], and the right
// half is rest of parts[j] plus parts[j+1:].
func halve(parts []part, half int64) (j int, rest int64) {
	room := half
	for j = 0; j < len(parts) && room > 0; j++ {
		if parts[j].amount > room {
			return j, parts[j].amount - room
		}
		room -= parts[j].amount
	}
	return j, 0
}
