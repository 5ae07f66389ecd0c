// Package minmix implements the MM mixing algorithm of Thies et al.
// ("Abstraction Layers for Scalable Microfluidic Biocomputing", Natural
// Computing 2008), the canonical base mixing-tree builder used by the DAC
// 2014 droplet-streaming paper as its primary baseline.
//
// MM works on the binary expansions of the ratio parts. For a target ratio
// a1:...:aN with sum 2^d, a droplet of fluid i placed as a leaf below k mix
// levels contributes a_i-weight 2^(d-k); so bit j of a_i demands one pure
// droplet of fluid i entering at mix level j+1. The tree is assembled bottom
// up: at level 1 the fluids with bit 0 set are paired and mixed; at each
// higher level the carried intermediate droplets and the fresh leaves for
// that bit are paired again, until a single droplet — the target — remains.
// The count at every level is even, a consequence of sum(a_i) = 2^d.
package minmix

import (
	"fmt"
	"math/bits"

	"repro/internal/mixgraph"
	"repro/internal/ratio"
)

// Name is the algorithm identifier used across the repository.
const Name = "MM"

// Build constructs the MM mixing tree for the target ratio. The resulting
// tree has exactly one leaf per set bit of each ratio part and depth equal to
// the normalized accuracy level of the ratio.
func Build(target ratio.Ratio) (*mixgraph.Graph, error) {
	r := target.Normalized()
	d := r.Depth()
	if r.N() < 2 || d == 0 {
		return nil, fmt.Errorf("minmix: ratio %v needs no mixing", target)
	}

	b := mixgraph.NewBuilder(target)
	// One buffer holds each level's pool: the carried droplets, then the
	// level's leaves. The level's mixes overwrite its front half in place
	// and become the next carry. A carry of at most N droplets plus at most
	// N leaves pairs down to at most N again, so the buffer never grows.
	pool := make([]int32, 0, 2*r.N())
	for level := 1; level <= d; level++ {
		bit := uint(level - 1)
		for i := 0; i < r.N(); i++ {
			if r.Part(i)>>bit&1 == 1 {
				pool = append(pool, b.Leaf(i))
			}
		}
		if len(pool)%2 != 0 {
			return nil, fmt.Errorf("minmix: internal error: odd pool (%d) at level %d for %v", len(pool), level, target)
		}
		for i := 0; i+1 < len(pool); i += 2 {
			pool[i/2] = b.Mix(pool[i], pool[i+1])
		}
		pool = pool[:len(pool)/2]
	}
	if len(pool) != 1 {
		return nil, fmt.Errorf("minmix: internal error: %d droplets remain for %v", len(pool), target)
	}
	return b.Build(pool[0], Name)
}

// Mlb returns the least mixer count at which the MM tree for target
// finishes in its depth d, the paper's default mixer count. It reads the
// parts' bits and builds nothing, and it equals sched.Mlb(Build(target))
// (DESIGN §11 has the proof; core's TestPaperMixersClosedForm checks it).
//
// The mixes Build makes at loop level ℓ sit at positional level ℓ, and
// there are w_ℓ = ⌊(w_{ℓ-1} + c_ℓ)/2⌋ of them, where c_ℓ counts the parts
// with bit ℓ-1 set and w_0 = 0. A mix at positional level p has d-p
// ancestors above it, so in a d-cycle schedule it runs by cycle p: Mc
// mixers need Mc·p ≥ w_1+…+w_p for every p. Hu's rule, optimal for
// unit-time in-trees, meets the largest of these bounds.
func Mlb(target ratio.Ratio) (int, error) {
	// Normalizing divides every part by 2^shift, the largest power of two
	// dividing them all; reading bits from shift up does the same.
	var or uint64
	for i := 0; i < target.N(); i++ {
		or |= uint64(target.Part(i))
	}
	shift := bits.TrailingZeros64(or)
	d := target.Depth() - shift
	if target.N() < 2 || d == 0 {
		return 0, fmt.Errorf("minmix: ratio %v needs no mixing", target)
	}
	mc, width, done := 0, 0, 0
	for level := 1; level <= d; level++ {
		bit := uint(level - 1 + shift)
		for i := 0; i < target.N(); i++ {
			width += int(target.Part(i) >> bit & 1)
		}
		width /= 2
		done += width
		mc = max(mc, (done+level-1)/level)
	}
	return mc, nil
}

// InputCount returns the number of input droplets the MM tree for r uses:
// the total popcount of the ratio parts (normalizing shifts out only
// zero bits, so it leaves the count alone). It matches
// Build(r).Stats().InputTotal without constructing the tree.
func InputCount(r ratio.Ratio) int64 {
	var total int64
	for i := 0; i < r.N(); i++ {
		total += int64(bits.OnesCount64(uint64(r.Part(i))))
	}
	return total
}
