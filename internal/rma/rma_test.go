package rma

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/minmix"
	"repro/internal/ratio"
)

func TestBuildValidates(t *testing.T) {
	for _, s := range []string{
		"2:1:1:1:1:1:9",
		"26:21:2:2:3:3:199",
		"128:123:5",
		"25:5:5:5:5:13:13:25:1:159",
		"9:17:26:9:195",
		"57:28:6:6:6:3:150",
		"1:3",
		"1:1",
	} {
		g, err := Build(ratio.MustParse(s))
		if err != nil {
			t.Fatalf("Build(%s): %v", s, err)
		}
		st := g.Stats()
		if st.InputTotal != st.Waste+2 {
			t.Errorf("%s: conservation violated: I=%d W=%d", s, st.InputTotal, st.Waste)
		}
		if st.Shared != 0 {
			t.Errorf("%s: RMA must build a plain tree, got %d shared nodes", s, st.Shared)
		}
	}
}

func TestPureLeafShortcut(t *testing.T) {
	// 128:123:5 at d=8: the first split isolates fluid 1 as a pure leaf
	// directly under the root.
	g, err := Build(ratio.MustParse("128:123:5"))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	l, r := &g.Nodes[g.Root.Children[0]], &g.Nodes[g.Root.Children[1]]
	oneIsPureLeaf := (l.IsLeaf() && l.Fluid == 0) || (r.IsLeaf() && r.Fluid == 0)
	if !oneIsPureLeaf {
		t.Error("expected a pure x1 leaf directly under the root")
	}
}

func TestWasteAtLeastMM(t *testing.T) {
	// The property the DAC'14 paper relies on: RMA trees produce at least as
	// much single-pass waste (= input droplets) as MM trees, on the paper's
	// own example ratios.
	for _, s := range []string{
		"26:21:2:2:3:3:199",
		"25:5:5:5:5:13:13:25:1:159",
		"9:17:26:9:195",
		"57:28:6:6:6:3:150",
		"2:1:1:1:1:1:9",
	} {
		r := ratio.MustParse(s)
		g, err := Build(r)
		if err != nil {
			t.Fatalf("Build(%s): %v", s, err)
		}
		if got, mm := g.Stats().InputTotal, minmix.InputCount(r); got < mm {
			t.Errorf("%s: RMA I=%d < MM I=%d", s, got, mm)
		}
	}
}

func TestDilution(t *testing.T) {
	// 1:3 (d=2): root splits {1,3} into {2(x2)} and {1(x1),1(x2)}.
	g, err := Build(ratio.MustNew(1, 3))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	s := g.Stats()
	if s.Mixes != 2 || s.InputTotal != 3 {
		t.Errorf("Tms=%d I=%d, want 2 and 3", s.Mixes, s.InputTotal)
	}
}

func TestErrors(t *testing.T) {
	if _, err := Build(ratio.MustNew(8)); err == nil {
		t.Error("single-fluid ratio accepted")
	}
}

func TestHalveBalance(t *testing.T) {
	parts := []part{{0, 5}, {1, 2}, {2, 1}}
	j, rest := halve(parts, 4)
	// The left half is parts[:j] plus all but rest of parts[j].
	ls, rs := -rest, rest
	for i, p := range parts {
		if i <= j {
			ls += p.amount
		} else {
			rs += p.amount
		}
	}
	if j != 0 || rest != 1 || ls != 4 || rs != 4 {
		t.Errorf("halve = (%d, %d), sums %d, %d; want (0, 1), 4, 4", j, rest, ls, rs)
	}
}

func TestQuickRandomRatios(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(11)
		parts := make([]int64, n)
		for i := range parts {
			parts[i] = 1
		}
		for rest := 32 - n; rest > 0; rest-- {
			parts[rng.Intn(n)]++
		}
		r, err := ratio.New(parts...)
		if err != nil {
			return false
		}
		g, err := Build(r)
		if err != nil {
			return false
		}
		s := g.Stats()
		// Build validates vectors; check tree arithmetic here.
		return int64(s.Mixes) == s.InputTotal-1 && s.Waste == s.InputTotal-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
