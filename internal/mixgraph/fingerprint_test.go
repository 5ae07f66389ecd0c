package mixgraph_test

import (
	"sync"
	"testing"

	"repro/internal/minmix"
	"repro/internal/ratio"
)

// TestFingerprintMemo checks the memoised fingerprint: stable across calls,
// equal across structurally identical graphs, distinct across different
// targets, and consistent under concurrent first use.
func TestFingerprintMemo(t *testing.T) {
	r := ratio.MustParse("2:1:1:1:1:1:9")
	g1, err := minmix.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := minmix.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Fingerprint() != g2.Fingerprint() {
		t.Fatal("identical graphs fingerprint differently")
	}
	if g1.Fingerprint() != g1.Fingerprint() {
		t.Fatal("fingerprint not stable")
	}
	other, err := minmix.Build(ratio.MustParse("1:3"))
	if err != nil {
		t.Fatal(err)
	}
	if g1.Fingerprint() == other.Fingerprint() {
		t.Fatal("different graphs share a fingerprint")
	}
	if got, want := g1.Target.String(), r.String(); got != want {
		t.Fatalf("graph target %q, want %q", got, want)
	}

	// Concurrent first computation must agree (exercised under -race).
	fresh, err := minmix.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]uint64, 8)
	keys := make([]string, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = fresh.Fingerprint()
			keys[i] = fresh.Target.String()
		}(i)
	}
	wg.Wait()
	for i := range results {
		if results[i] != g1.Fingerprint() || keys[i] != g1.Target.String() {
			t.Fatalf("concurrent accessor %d diverged", i)
		}
	}
}

// TestFingerprintZeroAllocWarm proves the warm fingerprint is free: the
// serving layer builds a plan-cache key from it on every request (the
// target's colon form is pinned free in internal/ratio).
func TestFingerprintZeroAllocWarm(t *testing.T) {
	g, err := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	if err != nil {
		t.Fatal(err)
	}
	g.Fingerprint()
	allocs := testing.AllocsPerRun(100, func() {
		_ = g.Fingerprint()
	})
	if allocs != 0 {
		t.Fatalf("warm fingerprint allocates %.1f objects per run, want 0", allocs)
	}
}
