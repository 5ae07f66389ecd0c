package forest

import (
	"strings"
	"testing"

	"repro/internal/minmix"
	"repro/internal/mixgraph"
	"repro/internal/ratio"
)

func buildBases(t *testing.T, ratios ...string) []*mixgraph.Graph {
	t.Helper()
	var out []*mixgraph.Graph
	for _, s := range ratios {
		g, err := minmix.Build(ratio.MustParse(s))
		if err != nil {
			t.Fatalf("minmix.Build(%s): %v", s, err)
		}
		out = append(out, g)
	}
	return out
}

func TestMultiTargetValidates(t *testing.T) {
	bases := buildBases(t, "3:13", "5:11")
	f, err := BuildMulti(bases, []int{8, 8})
	if err != nil {
		t.Fatalf("BuildMulti: %v", err)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	got := TargetsOf(f, bases)
	if got[0] != 8 || got[1] != 8 {
		t.Errorf("per-target emissions = %v, want [8 8]", got)
	}
}

// TestMultiTargetValidateFindsBaseNodes: a multi-target forest's tasks
// instantiate nodes of each of its bases, and Validate finds each node in
// the graph whose array holds it; a node of a graph outside the forest,
// even an identical one, is refused.
func TestMultiTargetValidateFindsBaseNodes(t *testing.T) {
	bases := buildBases(t, "3:13", "5:11")
	f, err := BuildMulti(bases, []int{8, 8})
	if err != nil {
		t.Fatalf("BuildMulti: %v", err)
	}
	other := buildBases(t, "5:11")[0]
	for _, task := range f.Tasks {
		if v := task.Base; owns(bases[1], v) {
			task.Base = &other.Nodes[v.ID]
			if err := f.Validate(); err == nil || !strings.Contains(err.Error(), "no base graph") {
				t.Fatalf("Validate with a node of another graph = %v", err)
			}
			return
		}
	}
	t.Fatal("no task instantiates a node of the second base")
}

func TestMultiTargetSharesAcrossTargets(t *testing.T) {
	// 3:13 and 5:11 (d=4 dilutions) share many sub-mixtures; the combined
	// forest must consume no more inputs than two independent forests, and
	// at least one reuse must cross a target boundary.
	bases := buildBases(t, "3:13", "5:11")
	combined, err := BuildMulti(bases, []int{8, 8})
	if err != nil {
		t.Fatalf("BuildMulti: %v", err)
	}
	sep0, _ := Build(bases[0], 8)
	sep1, _ := Build(bases[1], 8)
	independent := sep0.Stats().InputTotal + sep1.Stats().InputTotal
	if got := combined.Stats().InputTotal; got > independent {
		t.Errorf("combined I=%d > independent %d", got, independent)
	}
	crossTarget := false
	for _, task := range combined.Tasks {
		for _, src := range task.In {
			if src.Kind == FromTask && src.Reused {
				// Producer and consumer trees may serve different targets.
				prodWant := combined.Trees[src.Task.Tree-1].Want
				consWant := combined.Trees[task.Tree-1].Want
				if !prodWant.Equal(consWant) {
					crossTarget = true
				}
			}
		}
	}
	if !crossTarget {
		t.Log("no cross-target reuse on this instance (allowed, but unexpected for these CFs)")
	}
}

func TestMultiTargetSingleDegeneratesToForest(t *testing.T) {
	base := buildBases(t, "2:1:1:1:1:1:9")[0]
	multi, err := BuildMulti([]*mixgraph.Graph{base}, []int{16})
	if err != nil {
		t.Fatalf("BuildMulti: %v", err)
	}
	single, _ := Build(base, 16)
	ms, ss := multi.Stats(), single.Stats()
	// The vector-keyed pool can only do better than or equal to the
	// node-keyed pool.
	if ms.InputTotal > ss.InputTotal || ms.Mixes > ss.Mixes {
		t.Errorf("multi (I=%d Tms=%d) worse than single (I=%d Tms=%d)",
			ms.InputTotal, ms.Mixes, ss.InputTotal, ss.Mixes)
	}
	if err := multi.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestMultiTargetSevenFluids(t *testing.T) {
	// Two PCR-like mixes over the same 7 reservoirs.
	bases := buildBases(t, "2:1:1:1:1:1:9", "1:2:1:1:1:1:9")
	f, err := BuildMulti(bases, []int{6, 6})
	if err != nil {
		t.Fatalf("BuildMulti: %v", err)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	got := TargetsOf(f, bases)
	if got[0] < 6 || got[1] < 6 {
		t.Errorf("per-target emissions = %v", got)
	}
}

func TestMultiTargetErrors(t *testing.T) {
	bases := buildBases(t, "3:13", "5:11")
	if _, err := BuildMulti(bases, []int{8}); err == nil {
		t.Error("mismatched demand count accepted")
	}
	if _, err := BuildMulti(bases, []int{8, 0}); err == nil {
		t.Error("zero demand accepted")
	}
	if _, err := NewMultiBuilder(nil); err == nil {
		t.Error("empty base list accepted")
	}
	mixed := append(bases, buildBases(t, "2:1:1:1:1:1:9")...)
	if _, err := NewMultiBuilder(mixed); err == nil {
		t.Error("mismatched fluid universes accepted")
	}
	b, _ := NewMultiBuilder(bases)
	if _, err := b.AddTree(5); err == nil {
		t.Error("out-of-range target accepted")
	}
}

func TestMultiBuilderPool(t *testing.T) {
	bases := buildBases(t, "3:13", "5:11")
	b, err := NewMultiBuilder(bases)
	if err != nil {
		t.Fatalf("NewMultiBuilder: %v", err)
	}
	if _, err := b.AddTree(0); err != nil {
		t.Fatalf("AddTree: %v", err)
	}
	if b.PoolSize() == 0 {
		t.Error("no spares pooled after first tree")
	}
	f := b.Forest()
	if f.Demand != 2 || len(f.Trees) != 1 {
		t.Errorf("forest state: demand=%d trees=%d", f.Demand, len(f.Trees))
	}
}
