package mixgraph_test

import (
	"errors"
	"testing"

	"repro/internal/minmix"
	"repro/internal/mixgraph"
	"repro/internal/ratio"
)

// TestValidateRejectsTamperedGraph tampers with a built PCR16 MM graph in
// three ways Build itself can never produce — a leaf of another fluid, a
// wrong level, a mix placed before its child — and requires Validate to
// name each.
func TestValidateRejectsTamperedGraph(t *testing.T) {
	pcr := ratio.MustParse("2:1:1:1:1:1:9")
	// firstMix returns a fresh graph and its first non-root mix node.
	firstMix := func() (*mixgraph.Graph, *mixgraph.Node) {
		g, err := minmix.Build(pcr)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("untampered graph: %v", err)
		}
		for _, n := range g.Nodes {
			if !n.IsLeaf() && n != g.Root {
				return g, n
			}
		}
		t.Fatal("no inner mix")
		return nil, nil
	}
	for _, tc := range []struct {
		name   string
		tamper func(g *mixgraph.Graph, m *mixgraph.Node)
		want   error
	}{
		{"leaf fluid", func(g *mixgraph.Graph, _ *mixgraph.Node) {
			// A leaf dispensing the next fluid over leaves the wiring
			// intact but moves the root off the target.
			for _, n := range g.Nodes {
				if n.IsLeaf() {
					n.Fluid = (n.Fluid + 1) % pcr.N()
					return
				}
			}
		}, mixgraph.ErrWrongTarget},
		{"level", func(_ *mixgraph.Graph, m *mixgraph.Node) { m.Level++ }, mixgraph.ErrBadLevel},
		{"child order", func(g *mixgraph.Graph, m *mixgraph.Node) {
			// Swap the mix with its first child, IDs and all, so the node
			// list stays consistent but the mix now precedes its child.
			c := m.Children[0]
			g.Nodes[m.ID], g.Nodes[c.ID] = c, m
			m.ID, c.ID = c.ID, m.ID
		}, mixgraph.ErrBadTopology},
	} {
		g, m := firstMix()
		tc.tamper(g, m)
		if err := g.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestRootIsTarget: the proof that the root is the target is memoised only
// once it holds, so a graph whose leaf dispenses the wrong fluid keeps
// failing until it is mended.
func TestRootIsTarget(t *testing.T) {
	g, err := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	if err != nil {
		t.Fatal(err)
	}
	leaf := g.Nodes[0]
	if !leaf.IsLeaf() {
		t.Fatal("node 0 is not a leaf")
	}
	scratch := make([]int64, g.ScratchWords())
	leaf.Fluid = (leaf.Fluid + 1) % g.Target.N()
	for range 2 {
		if g.RootIsTarget(scratch) {
			t.Fatal("root of a graph with a wrong leaf fluid proven the target")
		}
	}
	leaf.Fluid = (leaf.Fluid + g.Target.N() - 1) % g.Target.N()
	if !g.RootIsTarget(scratch) {
		t.Fatal("root of the mended graph not proven the target")
	}
}
