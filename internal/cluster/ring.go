// Package cluster is the node-to-node tier of a dmfbd fleet: a consistent-
// hash ring (virtual nodes, seeded placement) that maps plan-artifact
// addresses and session keys to owner nodes, and a small HTTP client with a
// per-peer circuit breaker (reusing the fleet breaker) for fetching, pushing
// and delegating plan builds between nodes.
//
// The ring gives every node the same answer to "who owns this key" from
// nothing but the member list, which is what lets the cross-node single-
// flight work without coordination: all nodes hash a plan key to the same
// owner, the owner builds once (coalescing its own concurrent requests
// through the in-process flight group), and everyone else fetches the
// artifact. Virtual nodes keep placement balanced across heterogeneous
// member counts, and consistent hashing bounds rebalancing: a member
// joining or leaving an N-node ring moves ~1/N of the key space, never all
// of it (pinned by TestRingRebalanceBounded).
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// virtualNodes is the per-member vnode count. 128 vnodes keep the
// per-member share of the key space within a few percent of uniform for
// small fleets while the ring stays a few kilobytes.
const virtualNodes = 128

// Ring is an immutable consistent-hash ring over member IDs. Build with
// NewRing; derive changed memberships with With/Without (the ring itself is
// never mutated, so lookups need no locking).
type Ring struct {
	members []string
	hashes  []uint64 // sorted vnode hashes
	owners  []string // owners[i] owns hashes[i]
}

// NewRing builds a ring over the given member IDs with virtualNodes
// virtual nodes each. Duplicate member IDs are collapsed. Placement is
// seeded by the member IDs alone, so every node that knows the same
// membership computes the identical ring.
func NewRing(members []string) *Ring {
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{
		members: uniq,
		hashes:  make([]uint64, 0, len(uniq)*virtualNodes),
		owners:  make([]string, 0, len(uniq)*virtualNodes),
	}
	type vnode struct {
		hash  uint64
		owner string
	}
	vns := make([]vnode, 0, len(uniq)*virtualNodes)
	for _, m := range uniq {
		for i := 0; i < virtualNodes; i++ {
			vns = append(vns, vnode{hash: hashKey(fmt.Sprintf("%s#%d", m, i)), owner: m})
		}
	}
	sort.Slice(vns, func(i, j int) bool {
		if vns[i].hash != vns[j].hash {
			return vns[i].hash < vns[j].hash
		}
		// Hash ties (astronomically rare with 64-bit FNV) break by owner ID
		// so placement stays deterministic across nodes.
		return vns[i].owner < vns[j].owner
	})
	for _, v := range vns {
		r.hashes = append(r.hashes, v.hash)
		r.owners = append(r.owners, v.owner)
	}
	return r
}

// Members returns the ring's member IDs, sorted.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Size returns the member count.
func (r *Ring) Size() int { return len(r.members) }

// Owner maps a key to its owning member: the first vnode clockwise of the
// key's hash. An empty ring owns nothing and returns "".
func (r *Ring) Owner(key string) string {
	if r == nil || len(r.hashes) == 0 {
		return ""
	}
	h := hashKey(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0 // wrap past the top of the ring
	}
	return r.owners[i]
}

// Successors returns up to n distinct members clockwise from the key's
// hash, starting with the key's owner. This is the key's replica set: the
// owner plus its n-1 ring successors, which is where the artifact tier
// places redundant copies so one node's disk loss never loses the only
// copy. n is clamped to the member count; an empty ring returns nil.
func (r *Ring) Successors(key string, n int) []string {
	if r == nil || len(r.hashes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hashKey(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for j := 0; j < len(r.hashes) && len(out) < n; j++ {
		owner := r.owners[(start+j)%len(r.hashes)]
		if !seen[owner] {
			seen[owner] = true
			out = append(out, owner)
		}
	}
	return out
}

// With derives the ring with an additional member.
func (r *Ring) With(member string) *Ring {
	return NewRing(append(r.Members(), member))
}

// Without derives the ring with a member removed.
func (r *Ring) Without(member string) *Ring {
	kept := make([]string, 0, len(r.members))
	for _, m := range r.members {
		if m != member {
			kept = append(kept, m)
		}
	}
	return NewRing(kept)
}

// hashKey is 64-bit FNV-1a finished with the splitmix64 mixer — stable
// across platforms and releases (the ring's placement is part of the wire
// contract: all nodes must agree). Raw FNV of short, similar labels
// ("node-0#17") leaves the high bits correlated, which skews vnode
// placement badly; the finalizer restores avalanche so per-member shares
// stay near uniform.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
