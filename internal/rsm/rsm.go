// Package rsm reconstructs the RSM mixing algorithm of Hsieh et al.
// ("A Reagent-Saving Mixing Algorithm for Preparing Multiple-Target
// Biochemical Samples Using Digital Microfluidics", IEEE TCAD 31(11), 2012),
// the fourth base mixing algorithm named by the DAC 2014 droplet-streaming
// paper (Table 1). The DAC paper does not evaluate RSM directly, but lists
// it as a reagent-oriented alternative to MM/RMA/MTCS; this package keeps
// the repository's algorithm roster complete.
//
// Reconstruction: RSM is realised as a memoised beam search over top-down
// ratio bisections, minimising input-droplet usage, followed by
// common-subtree sharing:
//
//   - Every mixture node (a sub-ratio with sum 2^k) considers a beam of
//     candidate splits into two halves of sum 2^(k-1): the RMA greedy
//     largest-first split, a round-robin balanced split, a split that
//     isolates the largest fluid, and bit-pattern splits derived from the
//     parts' binary expansions. Each candidate's cost is evaluated
//     recursively with memoisation on the exact CF vector, and the
//     input-minimal decomposition wins.
//   - The chosen decomposition is instantiated with common-sub-mixture
//     sharing (both outputs of a duplicated sub-mixture are consumed), as
//     in MTCS.
//
// Because the RMA split is always in the beam, RSM never uses more input
// droplets than RMA; sharing usually pushes it to or below MTCS. See
// DESIGN.md §4 for the substitution policy.
package rsm

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/mixgraph"
	"repro/internal/ratio"
)

// Name is the algorithm identifier used across the repository.
const Name = "RSM"

// part is one fluid's share within a sub-ratio during decomposition.
type part struct {
	fluid  int
	amount int64
}

// shape is a planned decomposition node.
type shape struct {
	fluid    int // >= 0 for a pure-input leaf
	children [2]*shape
	key      string
}

// memoEntry caches the best decomposition for a sub-ratio.
type memoEntry struct {
	cost  int64 // minimal input droplets
	shape *shape
}

// Build constructs the RSM mixing DAG for the target ratio.
func Build(target ratio.Ratio) (*mixgraph.Graph, error) {
	r := target.Normalized()
	d := r.Depth()
	if r.N() < 2 || d == 0 {
		return nil, fmt.Errorf("rsm: ratio %v needs no mixing", target)
	}
	parts := make([]part, 0, r.N())
	for i := 0; i < r.N(); i++ {
		parts = append(parts, part{fluid: i, amount: r.Part(i)})
	}
	memo := make(map[string]memoEntry)
	entry, err := plan(parts, d, r.N(), memo)
	if err != nil {
		return nil, err
	}

	// Instantiate with sharing, as in MTCS.
	b := mixgraph.NewBuilder(target)
	avail := make(map[string][]int32)
	var need func(s *shape, isRoot bool) int32
	need = func(s *shape, isRoot bool) int32 {
		if !isRoot {
			if free := avail[s.key]; len(free) > 0 {
				n := free[len(free)-1]
				avail[s.key] = free[:len(free)-1]
				return n
			}
		}
		if s.fluid >= 0 {
			return b.Leaf(s.fluid)
		}
		l := need(s.children[0], false)
		rn := need(s.children[1], false)
		m := b.Mix(l, rn)
		if !isRoot {
			avail[s.key] = append(avail[s.key], m)
		}
		return m
	}
	root := need(entry.shape, true)
	return b.Build(root, Name)
}

// plan returns the input-minimal decomposition of a sub-ratio (sum 2^k).
func plan(parts []part, k, nFluids int, memo map[string]memoEntry) (memoEntry, error) {
	if len(parts) == 0 {
		return memoEntry{}, fmt.Errorf("rsm: internal error: empty sub-ratio")
	}
	key := keyOf(parts, k, nFluids)
	if e, ok := memo[key]; ok {
		return e, nil
	}
	if len(parts) == 1 {
		e := memoEntry{cost: 1, shape: &shape{fluid: parts[0].fluid, key: key}}
		memo[key] = e
		return e, nil
	}
	if k == 0 {
		return memoEntry{}, fmt.Errorf("rsm: internal error: %d fluids at scale 1", len(parts))
	}
	// Seed the memo entry to guard against pathological recursion on the
	// same key (cannot happen with strictly decreasing k, but cheap).
	best := memoEntry{cost: 1 << 40}
	for _, cand := range candidateSplits(parts, int64(1)<<uint(k-1)) {
		l, err := plan(cand[0], k-1, nFluids, memo)
		if err != nil {
			return memoEntry{}, err
		}
		r, err := plan(cand[1], k-1, nFluids, memo)
		if err != nil {
			return memoEntry{}, err
		}
		if c := l.cost + r.cost; c < best.cost {
			best = memoEntry{
				cost:  c,
				shape: &shape{fluid: -1, children: [2]*shape{l.shape, r.shape}, key: key},
			}
		}
	}
	if best.shape == nil {
		return memoEntry{}, fmt.Errorf("rsm: no feasible split for %v at scale 2^%d", parts, k)
	}
	memo[key] = best
	return best, nil
}

// keyOf canonicalises a sub-ratio as a memo key: amounts per fluid at the
// scale 2^k, which identifies the exact CF vector of the sub-mixture.
func keyOf(parts []part, k, nFluids int) string {
	amounts := make([]int64, nFluids)
	for _, p := range parts {
		amounts[p.fluid] += p.amount
	}
	key := strconv.AppendInt(append(make([]byte, 0, 4+8*nFluids), 'k'), int64(k), 10)
	for _, a := range amounts {
		key = strconv.AppendInt(append(key, ':'), a, 10)
	}
	return string(key)
}

// candidateSplits proposes a beam of halvings of the sub-ratio into two
// sides of `half` units each. All candidates are deterministic.
func candidateSplits(parts []part, half int64) [][2][]part {
	sorted := append([]part(nil), parts...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].amount != sorted[j].amount {
			return sorted[i].amount > sorted[j].amount
		}
		return sorted[i].fluid < sorted[j].fluid
	})

	var out [][2][]part
	seen := map[string]bool{}
	var key []byte
	add := func(left, right []part) {
		if len(left) == 0 || len(right) == 0 {
			return
		}
		key = appendSideKey(append(appendSideKey(key[:0], left), '|'), right)
		if seen[string(key)] {
			return
		}
		seen[string(key)] = true
		out = append(out, [2][]part{left, right})
	}

	// 1. RMA greedy: fill the left half largest-first, splitting one fluid
	//    across the boundary if needed.
	add(greedyFill(sorted, half))

	// 2. Round-robin: alternate fluids between the halves, topping up with
	//    a boundary split.
	add(roundRobin(sorted, half))

	// 3. Isolate the largest fluid on the left as far as possible.
	add(isolateLargest(sorted, half))

	// 4. Smallest-first greedy: group the small fluids together so they
	//    leave the decomposition early (fewer deep re-dispenses).
	reversed := append([]part(nil), sorted...)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	add(greedyFill(reversed, half))

	// 5. Bit split: put each fluid's amount bits at or above the half's bit
	//    weight on the left, the rest on the right, then rebalance.
	add(bitSplit(sorted, half))

	// 6. The MM (MinMix) root split: simulate the bit-decomposition pooling
	//    bottom-up and take the contents of the two droplets that would be
	//    mixed last. With this candidate in the beam, RSM's input usage is
	//    bounded by MM's popcount cost at every node.
	if l, r, ok := mmSplit(sorted, half); ok {
		add(l, r)
	}

	return out
}

// mmSplit runs the MinMix pairing over the sub-ratio and returns the
// contents of the final two droplets.
func mmSplit(parts []part, half int64) (left, right []part, ok bool) {
	type item map[int]int64 // fluid -> amount at the sub-ratio's scale
	total := int64(0)
	for _, p := range parts {
		total += p.amount
	}
	if total != 2*half {
		return nil, nil, false
	}
	// Run the MinMix pooling but stop before the final pairing, exposing the
	// two droplets the root would mix.
	var carry, pool []item
	for weight := int64(1); weight < total; weight <<= 1 {
		pool = carry
		for _, p := range parts {
			if p.amount&weight != 0 {
				pool = append(pool, item{p.fluid: weight})
			}
		}
		if len(pool)%2 != 0 {
			return nil, nil, false
		}
		if weight<<1 >= total {
			break
		}
		carry = nil
		for i := 0; i+1 < len(pool); i += 2 {
			m := item{}
			for f, a := range pool[i] {
				m[f] += a
			}
			for f, a := range pool[i+1] {
				m[f] += a
			}
			carry = append(carry, m)
		}
	}
	if len(pool) != 2 {
		return nil, nil, false
	}
	toParts := func(it item) []part {
		fluids := make([]int, 0, len(it))
		for f := range it {
			fluids = append(fluids, f)
		}
		sort.Ints(fluids)
		out := make([]part, 0, len(fluids))
		for _, f := range fluids {
			out = append(out, part{fluid: f, amount: it[f]})
		}
		return out
	}
	return toParts(pool[0]), toParts(pool[1]), true
}

// appendSideKey appends one side's parts in fluid order, "fluid=amount,"
// each, to dst.
func appendSideKey(dst []byte, side []part) []byte {
	s := slices.Clone(side)
	slices.SortFunc(s, func(a, b part) int { return cmp.Compare(a.fluid, b.fluid) })
	for _, p := range s {
		dst = strconv.AppendInt(dst, int64(p.fluid), 10)
		dst = strconv.AppendInt(append(dst, '='), p.amount, 10)
		dst = append(dst, ',')
	}
	return dst
}

func greedyFill(sorted []part, half int64) (left, right []part) {
	room := half
	for _, p := range sorted {
		switch {
		case room == 0:
			right = append(right, p)
		case p.amount <= room:
			left = append(left, p)
			room -= p.amount
		default:
			left = append(left, part{fluid: p.fluid, amount: room})
			right = append(right, part{fluid: p.fluid, amount: p.amount - room})
			room = 0
		}
	}
	return left, right
}

func roundRobin(sorted []part, half int64) (left, right []part) {
	var ls, rs int64
	for i, p := range sorted {
		if i%2 == 0 && ls < half {
			left = append(left, p)
			ls += p.amount
		} else {
			right = append(right, p)
			rs += p.amount
		}
	}
	return rebalance(left, right, half)
}

func isolateLargest(sorted []part, half int64) (left, right []part) {
	big := sorted[0]
	if big.amount >= half {
		left = append(left, part{fluid: big.fluid, amount: half})
		if big.amount > half {
			right = append(right, part{fluid: big.fluid, amount: big.amount - half})
		}
		right = append(right, sorted[1:]...)
		return left, right
	}
	left = append(left, big)
	for _, p := range sorted[1:] {
		right = append(right, p)
	}
	return rebalance(left, right, half)
}

func bitSplit(sorted []part, half int64) (left, right []part) {
	for _, p := range sorted {
		hi := p.amount &^ (half - 1) // bits at or above the half's weight... keep in range
		if hi > p.amount {
			hi = p.amount
		}
		lo := p.amount - hi
		if hi > 0 {
			left = append(left, part{fluid: p.fluid, amount: hi})
		}
		if lo > 0 {
			right = append(right, part{fluid: p.fluid, amount: lo})
		}
	}
	return rebalance(left, right, half)
}

// rebalance moves amount between the sides until the left sums to half,
// splitting a fluid across the boundary if necessary. Sides may share
// fluids; amounts per fluid are merged afterwards.
func rebalance(left, right []part, half int64) ([]part, []part) {
	var ls int64
	for _, p := range left {
		ls += p.amount
	}
	for ls > half {
		// Move surplus from the left's last part to the right.
		last := &left[len(left)-1]
		move := ls - half
		if move >= last.amount {
			move = last.amount
			right = append(right, *last)
			left = left[:len(left)-1]
		} else {
			right = append(right, part{fluid: last.fluid, amount: move})
			last.amount -= move
		}
		ls -= move
	}
	for ls < half {
		if len(right) == 0 {
			return nil, nil // infeasible candidate; caller drops empty sides
		}
		last := &right[len(right)-1]
		move := half - ls
		if move >= last.amount {
			move = last.amount
			left = append(left, *last)
			right = right[:len(right)-1]
		} else {
			left = append(left, part{fluid: last.fluid, amount: move})
			last.amount -= move
		}
		ls += move
	}
	return merge(left), merge(right)
}

// merge combines duplicate fluids within one side.
func merge(side []part) []part {
	byFluid := map[int]int64{}
	order := []int{}
	for _, p := range side {
		if _, ok := byFluid[p.fluid]; !ok {
			order = append(order, p.fluid)
		}
		byFluid[p.fluid] += p.amount
	}
	out := make([]part, 0, len(order))
	for _, f := range order {
		out = append(out, part{fluid: f, amount: byFluid[f]})
	}
	return out
}
