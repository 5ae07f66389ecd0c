package mixgraph_test

import (
	"errors"
	"testing"

	"repro/internal/minmix"
	"repro/internal/mixgraph"
	"repro/internal/ratio"
)

// TestValidateRejectsTamperedGraph tampers with a built PCR16 MM graph in
// ways Build itself can never produce — a leaf of another fluid, a wrong
// level, a mix placed before its child, a node or child ID off the list, a
// root outside the node array — and requires Validate to reject each,
// naming the sentinel where one exists.
func TestValidateRejectsTamperedGraph(t *testing.T) {
	pcr := ratio.MustParse("2:1:1:1:1:1:9")
	// firstMix returns a fresh graph and the ID of its first non-root mix.
	firstMix := func() (*mixgraph.Graph, int32) {
		g, err := minmix.Build(pcr)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("untampered graph: %v", err)
		}
		for i := range g.Nodes {
			if n := &g.Nodes[i]; !n.IsLeaf() && n != g.Root {
				return g, n.ID
			}
		}
		t.Fatal("no inner mix")
		return nil, 0
	}
	for _, tc := range []struct {
		name   string
		tamper func(g *mixgraph.Graph, m int32)
		want   error
	}{
		{"leaf fluid", func(g *mixgraph.Graph, _ int32) {
			// A leaf dispensing the next fluid over leaves the wiring
			// intact but moves the root off the target.
			for i := range g.Nodes {
				if n := &g.Nodes[i]; n.IsLeaf() {
					n.Fluid = (n.Fluid + 1) % int32(pcr.N())
					return
				}
			}
		}, mixgraph.ErrWrongTarget},
		{"level", func(g *mixgraph.Graph, m int32) { g.Nodes[m].Level++ }, mixgraph.ErrBadLevel},
		{"child order", func(g *mixgraph.Graph, m int32) {
			// Swap the mix with its first child, IDs and links all, so
			// the node list stays consistent but the mix now precedes
			// its child.
			c := g.Nodes[m].Children[0]
			g.Nodes[m], g.Nodes[c] = g.Nodes[c], g.Nodes[m]
			g.Nodes[m].ID, g.Nodes[c].ID = m, c
			for i := range g.Nodes {
				if n := &g.Nodes[i]; !n.IsLeaf() {
					for k, id := range n.Children {
						switch id {
						case m:
							n.Children[k] = c
						case c:
							n.Children[k] = m
						}
					}
				}
			}
		}, mixgraph.ErrBadTopology},
		{"node ID", func(g *mixgraph.Graph, m int32) { g.Nodes[m].ID++ }, nil},
		{"child out of range", func(g *mixgraph.Graph, m int32) { g.Nodes[m].Children[1] = -1 }, mixgraph.ErrBadTopology},
		{"root off the list", func(g *mixgraph.Graph, _ int32) {
			root := *g.Root
			g.Root = &root
		}, nil},
	} {
		g, m := firstMix()
		tc.tamper(g, m)
		err := g.Validate()
		if tc.want == nil && err == nil || tc.want != nil && !errors.Is(err, tc.want) {
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
	leaf := &g.Nodes[0]
	if !leaf.IsLeaf() {
		t.Fatal("node 0 is not a leaf")
	}
	scratch := make([]int64, g.ScratchWords())
	k := int32(g.Target.N())
	leaf.Fluid = (leaf.Fluid + 1) % k
	for range 2 {
		if g.RootIsTarget(scratch) {
			t.Fatal("root of a graph with a wrong leaf fluid proven the target")
		}
	}
	leaf.Fluid = (leaf.Fluid + k - 1) % k
	if !g.RootIsTarget(scratch) {
		t.Fatal("root of the mended graph not proven the target")
	}
}
