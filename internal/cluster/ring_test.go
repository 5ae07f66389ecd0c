package cluster

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	ks := make([]string, n)
	for i := range ks {
		ks[i] = fmt.Sprintf("key-%d", i)
	}
	return ks
}

func TestRingDeterministicAndComplete(t *testing.T) {
	members := []string{"node-b", "node-a", "node-c"}
	r1 := NewRing(members)
	r2 := NewRing([]string{"node-c", "node-a", "node-b", "node-a"}) // order/dups must not matter
	for _, k := range keys(500) {
		o := r1.Owner(k)
		if o == "" {
			t.Fatalf("key %q unowned", k)
		}
		if o2 := r2.Owner(k); o2 != o {
			t.Fatalf("placement not membership-seeded: %q owned by %q vs %q", k, o, o2)
		}
	}
	if (&Ring{}).Owner("x") != "" {
		t.Fatal("empty ring owns keys")
	}
	var nilRing *Ring
	if nilRing.Owner("x") != "" {
		t.Fatal("nil ring owns keys")
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing([]string{"a", "b", "c", "d"})
	counts := map[string]int{}
	const n = 8000
	for _, k := range keys(n) {
		counts[r.Owner(k)]++
	}
	// With 128 vnodes per member, each of 4 members should hold its fair
	// quarter within a factor of two — the balance vnodes exist to provide.
	for m, c := range counts {
		if c < n/8 || c > n/2 {
			t.Fatalf("member %s owns %d of %d keys (gross imbalance): %v", m, c, n, counts)
		}
	}
	if len(counts) != 4 {
		t.Fatalf("only %d members own keys: %v", len(counts), counts)
	}
}

// TestRingRebalanceBounded pins consistent hashing's defining property: a
// member joining or leaving an N-member ring moves only the ~1/N key share
// it gains or held — never a wholesale reshuffle (modulo hashing, which
// would move nearly everything).
func TestRingRebalanceBounded(t *testing.T) {
	base := NewRing([]string{"n0", "n1", "n2", "n3"})
	ks := keys(10000)

	t.Run("join", func(t *testing.T) {
		grown := base.With("n4")
		moved := 0
		for _, k := range ks {
			before, after := base.Owner(k), grown.Owner(k)
			if before != after {
				moved++
				if after != "n4" {
					t.Fatalf("key %q moved %s→%s, not to the joining member", k, before, after)
				}
			}
		}
		// Expected share 1/5; assert < 2× expected.
		if limit := 2 * len(ks) / 5; moved >= limit {
			t.Fatalf("join moved %d of %d keys (limit %d)", moved, len(ks), limit)
		}
		if moved == 0 {
			t.Fatal("join moved nothing — new member owns no keys")
		}
	})

	t.Run("leave", func(t *testing.T) {
		shrunk := base.Without("n2")
		moved := 0
		for _, k := range ks {
			before, after := base.Owner(k), shrunk.Owner(k)
			if before != after {
				moved++
				if before != "n2" {
					t.Fatalf("key %q moved %s→%s though its owner stayed", k, before, after)
				}
			}
		}
		if limit := 2 * len(ks) / 4; moved >= limit {
			t.Fatalf("leave moved %d of %d keys (limit %d)", moved, len(ks), limit)
		}
		if moved == 0 {
			t.Fatal("leave moved nothing — departed member owned no keys")
		}
	})
}

// TestRingWithWithoutIdentity: With followed by Without of the same member
// must reproduce the original ring's key assignment exactly. This is what
// makes a failed join (or a node that joins and immediately dies) harmless:
// reverting membership reverts placement, with no residue.
func TestRingWithWithoutIdentity(t *testing.T) {
	base := NewRing([]string{"n0", "n1", "n2", "n3"})
	roundtrip := base.With("nx").Without("nx")
	for _, k := range keys(10000) {
		if before, after := base.Owner(k), roundtrip.Owner(k); before != after {
			t.Fatalf("With∘Without not identity: key %q owned by %q, was %q", k, after, before)
		}
	}
	if got, want := roundtrip.Size(), base.Size(); got != want {
		t.Fatalf("roundtrip ring has %d members, want %d", got, want)
	}
}

// TestRingSuccessors pins the replica-set contract: distinct members, owner
// first, clamped to membership, nil-safe.
func TestRingSuccessors(t *testing.T) {
	r := NewRing([]string{"a", "b", "c", "d"})
	for _, k := range keys(500) {
		succ := r.Successors(k, 3)
		if len(succ) != 3 {
			t.Fatalf("key %q: %d successors, want 3", k, len(succ))
		}
		if succ[0] != r.Owner(k) {
			t.Fatalf("key %q: successors start at %q, owner is %q", k, succ[0], r.Owner(k))
		}
		seen := map[string]bool{}
		for _, m := range succ {
			if seen[m] {
				t.Fatalf("key %q: duplicate member %q in %v", k, m, succ)
			}
			seen[m] = true
		}
	}
	if got := r.Successors("k", 99); len(got) != 4 {
		t.Fatalf("over-asking returned %d members, want all 4", len(got))
	}
	if got := r.Successors("k", 0); got != nil {
		t.Fatalf("n=0 returned %v", got)
	}
	var nilRing *Ring
	if got := nilRing.Successors("k", 2); got != nil {
		t.Fatalf("nil ring returned %v", got)
	}
}
