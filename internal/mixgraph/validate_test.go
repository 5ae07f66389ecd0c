package mixgraph_test

import (
	"errors"
	"testing"

	"repro/internal/minmix"
	"repro/internal/mixgraph"
	"repro/internal/ratio"
)

// TestValidateRejectsTamperedGraph tampers with a built PCR16 MM graph in
// three ways Build itself can never produce — a wrong mix vector, a wrong
// level, a mix placed before its child — and requires Validate to name
// each.
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
		{"vector", func(_ *mixgraph.Graph, m *mixgraph.Node) { m.Vec = ratio.Unit(0, pcr.N()) }, mixgraph.ErrBadVector},
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
