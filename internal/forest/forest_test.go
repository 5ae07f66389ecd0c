package forest

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/minmix"
	"repro/internal/mixgraph"
	"repro/internal/mtcs"
	"repro/internal/ratio"
	"repro/internal/rma"
)

func pcrBase(t *testing.T) *mixgraph.Graph {
	t.Helper()
	g, err := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	if err != nil {
		t.Fatalf("minmix.Build: %v", err)
	}
	return g
}

// TestFig1 reproduces every number printed in Fig. 1 of the paper: the
// mixing forest grown from the MM tree of the PCR master-mix ratio
// 2:1:1:1:1:1:9 with demand D = 16.
func TestFig1(t *testing.T) {
	f, err := Build(pcrBase(t), 16)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	s := f.Stats()
	if s.Trees != 8 {
		t.Errorf("|F| = %d, want 8", s.Trees)
	}
	if s.Mixes != 19 {
		t.Errorf("Tms = %d, want 19", s.Mixes)
	}
	if s.Waste != 0 {
		t.Errorf("W = %d, want 0", s.Waste)
	}
	if s.InputTotal != 16 {
		t.Errorf("I = %d, want 16", s.InputTotal)
	}
	want := []int64{2, 1, 1, 1, 1, 1, 9}
	for i, w := range want {
		if s.Inputs[i] != w {
			t.Errorf("I[%d] = %d, want %d", i, s.Inputs[i], w)
		}
	}
	// Per-tree mix counts from the figure: T1..T8 = 7,1,2,1,4,1,2,1.
	wantSizes := []int{7, 1, 2, 1, 4, 1, 2, 1}
	for i, tree := range f.Trees {
		if got := len(tree.Tasks); got != wantSizes[i] {
			t.Errorf("|T%d| = %d, want %d", i+1, got, wantSizes[i])
		}
	}
}

// TestFig2 reproduces Fig. 2: the same engine with demand D = 20.
func TestFig2(t *testing.T) {
	f, err := Build(pcrBase(t), 20)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	s := f.Stats()
	if s.Trees != 10 {
		t.Errorf("|F| = %d, want 10", s.Trees)
	}
	if s.Mixes != 27 {
		t.Errorf("Tms = %d, want 27", s.Mixes)
	}
	if s.Waste != 5 {
		t.Errorf("W = %d, want 5", s.Waste)
	}
	if s.InputTotal != 25 {
		t.Errorf("I = %d, want 25", s.InputTotal)
	}
	want := []int64{3, 2, 2, 2, 2, 2, 12}
	for i, w := range want {
		if s.Inputs[i] != w {
			t.Errorf("I[%d] = %d, want %d", i, s.Inputs[i], w)
		}
	}
	// T9 is a full rebuild of the base tree (7 mixes), T10 harvests its
	// level-3 waste (1 mix).
	if got := len(f.Trees[8].Tasks); got != 7 {
		t.Errorf("|T9| = %d, want 7", got)
	}
	if got := len(f.Trees[9].Tasks); got != 1 {
		t.Errorf("|T10| = %d, want 1", got)
	}
}

func TestDemandTwoIsBaseTree(t *testing.T) {
	base := pcrBase(t)
	f, err := Build(base, 2)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	s := f.Stats()
	bs := base.Stats()
	if s.Trees != 1 || s.Mixes != bs.Mixes || s.InputTotal != bs.InputTotal {
		t.Errorf("D=2 forest: trees=%d Tms=%d I=%d, want 1, %d, %d",
			s.Trees, s.Mixes, s.InputTotal, bs.Mixes, bs.InputTotal)
	}
	if s.Waste != bs.Waste {
		t.Errorf("D=2 waste = %d, want %d", s.Waste, bs.Waste)
	}
}

func TestOddDemand(t *testing.T) {
	f, err := Build(pcrBase(t), 5)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	s := f.Stats()
	if s.Trees != 3 || s.Targets != 6 {
		t.Errorf("D=5: trees=%d targets=%d, want 3 and 6", s.Trees, s.Targets)
	}
}

func TestFullCycleZeroWaste(t *testing.T) {
	// For D = p * 2^d with an MM base, W must be exactly 0 (paper §4.1).
	base := pcrBase(t) // d = 4
	for _, p := range []int{1, 2, 3} {
		f, err := Build(base, p*16)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if s := f.Stats(); s.Waste != 0 {
			t.Errorf("D=%d: W = %d, want 0", p*16, s.Waste)
		}
		if err := f.Validate(); err != nil {
			t.Errorf("D=%d: %v", p*16, err)
		}
	}
}

func TestPeriodicity(t *testing.T) {
	// Demand p*2^d costs exactly p times the inputs of demand 2^d.
	base := pcrBase(t)
	one, _ := Build(base, 16)
	three, _ := Build(base, 48)
	s1, s3 := one.Stats(), three.Stats()
	if s3.InputTotal != 3*s1.InputTotal || s3.Mixes != 3*s1.Mixes {
		t.Errorf("D=48: I=%d Tms=%d, want %d and %d",
			s3.InputTotal, s3.Mixes, 3*s1.InputTotal, 3*s1.Mixes)
	}
}

func TestIncrementalBuilderMatchesBatch(t *testing.T) {
	base := pcrBase(t)
	b := NewPackedBuilder(base)
	for i := 0; i < 10; i++ {
		b.AddTree()
	}
	inc := b.Forest().Materialize()
	batch, _ := Build(base, 20)
	si, sb := inc.Stats(), batch.Stats()
	if si.Mixes != sb.Mixes || si.InputTotal != sb.InputTotal || si.Waste != sb.Waste {
		t.Errorf("incremental (Tms=%d I=%d W=%d) != batch (Tms=%d I=%d W=%d)",
			si.Mixes, si.InputTotal, si.Waste, sb.Mixes, sb.InputTotal, sb.Waste)
	}
	if err := inc.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPoolDrainsAndRefills(t *testing.T) {
	base := pcrBase(t)
	b := NewPackedBuilder(base)
	b.AddTree() // T1: 6 wastes pooled
	if got := b.PoolSize(); got != 6 {
		t.Errorf("pool after T1 = %d, want 6", got)
	}
	for i := 0; i < 7; i++ {
		b.AddTree()
	}
	if got := b.PoolSize(); got != 0 {
		t.Errorf("pool after T8 = %d, want 0 (full cycle)", got)
	}
	b.AddTree() // T9 rebuilds the base tree
	if got := b.PoolSize(); got != 6 {
		t.Errorf("pool after T9 = %d, want 6", got)
	}
}

func TestBadDemand(t *testing.T) {
	if _, err := Build(pcrBase(t), 0); err == nil {
		t.Error("demand 0 accepted")
	}
	if _, err := Build(pcrBase(t), -4); err == nil {
		t.Error("negative demand accepted")
	}
}

func TestReusesCounted(t *testing.T) {
	f, _ := Build(pcrBase(t), 16)
	s := f.Stats()
	// All 6 wastes of T1 plus every spare of T3, T5, T7 etc. get reused;
	// with W = 0 every non-root task's spare output is consumed, and those
	// consumed cross-tree count as reuses. T1 has 6 spares reused; later
	// trees pool 5 more spares (T3:1, T5:3, T7:1), all reused cross-tree.
	if s.Reuses != 11 {
		t.Errorf("Reuses = %d, want 11", s.Reuses)
	}
}

func TestLabels(t *testing.T) {
	f, _ := Build(pcrBase(t), 16)
	labels := f.Labels()
	if len(labels) != len(f.Tasks) {
		t.Fatalf("labelled %d tasks, want %d", len(labels), len(f.Tasks))
	}
	if got := labels[f.Trees[0].Root]; got != "m1,1" {
		t.Errorf("T1 root label = %q, want m1,1", got)
	}
	if got := labels[f.Trees[1].Root]; got != "m2,1" {
		t.Errorf("T2 root label = %q, want m2,1", got)
	}
}

func TestRenderSmoke(t *testing.T) {
	f, _ := Build(pcrBase(t), 20)
	out := f.Render()
	for _, want := range []string{"T1:", "T10:", "reused waste", "(input)", "W=5", "I=25"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q", want)
		}
	}
}

func TestForestOverRMAAndMTCS(t *testing.T) {
	r := ratio.MustParse("2:1:1:1:1:1:9")
	for name, build := range map[string]func(ratio.Ratio) (*mixgraph.Graph, error){
		"RMA":  rma.Build,
		"MTCS": mtcs.Build,
	} {
		base, err := build(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f, err := Build(base, 32)
		if err != nil {
			t.Fatalf("%s forest: %v", name, err)
		}
		if err := f.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		s := f.Stats()
		if s.Targets != 32 {
			t.Errorf("%s: targets = %d, want 32", name, s.Targets)
		}
	}
}

func TestQuickForestInvariants(t *testing.T) {
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
		base, err := minmix.Build(r)
		if err != nil {
			return false
		}
		d := 1 + rng.Intn(40)
		fo, err := Build(base, d)
		if err != nil {
			return false
		}
		if fo.Validate() != nil {
			return false
		}
		s := fo.Stats()
		return s.Trees == (d+1)/2 &&
			s.InputTotal == int64(s.Targets)+s.Waste &&
			s.Targets == 2*s.Trees
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestForestReusesNeverExceedWasteSupply(t *testing.T) {
	// Each task has two outputs; targets + consumers <= 2 is checked by
	// Validate. Additionally the pool must never hand out a droplet twice.
	base := pcrBase(t)
	f, _ := Build(base, 40)
	seenSpare := map[*Task]int{}
	for _, task := range f.Tasks {
		for _, src := range task.In {
			if src.Kind == FromTask {
				seenSpare[src.Task]++
			}
		}
	}
	for task, uses := range seenSpare {
		if uses+task.Targets > 2 {
			t.Errorf("task %d consumed %d times with %d targets", task.ID, uses, task.Targets)
		}
	}
}
