package plancache

import (
	"testing"

	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/ratio"
	"repro/internal/sched"
)

// TestWarmGetAllocs pins the plan-cache hit path at zero allocations: the
// serving layer funnels every warm plan request through KeyFor + Get, so
// the pair must stay free of per-call garbage. KeyFor reads the graph's
// memoised fingerprint and the target's stored colon form; Get is a map probe plus an intrusive-list move. (obs is
// disabled in tests, so the metric hooks are single atomic loads.)
func TestWarmGetAllocs(t *testing.T) {
	g, err := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := forest.Build(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.MMS(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := New(8)
	key := KeyFor(g, 4, 2, "MMS", PristinePolicy)
	c.Put(key, NewPlan(f, s))

	if allocs := testing.AllocsPerRun(100, func() {
		k := KeyFor(g, 4, 2, "MMS", PristinePolicy)
		p, ok := c.Get(k)
		if !ok || p == nil {
			t.Fatal("warm lookup missed")
		}
	}); allocs != 0 {
		t.Fatalf("warm KeyFor+Get allocates %.1f objects, want 0", allocs)
	}

	// The miss path must stay cheap too: a probe that finds nothing does not
	// build anything.
	miss := KeyFor(g, 5, 2, "MMS", PristinePolicy)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get(miss); ok {
			t.Fatal("unexpected hit")
		}
	}); allocs != 0 {
		t.Fatalf("miss Get allocates %.1f objects, want 0", allocs)
	}
}
