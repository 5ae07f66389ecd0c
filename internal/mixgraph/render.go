package mixgraph

import (
	"fmt"
	"strings"
)

// BFSLabels assigns the paper's m_{1j} labels to the mix nodes of g,
// indexed by node ID ("" for leaves): j is the node's 1-based position in a
// breadth-first traversal from the root, left to right (Fig. 1 labels the
// MM tree for the PCR mix m11..m17). The index prefix names the component
// tree; for a standalone base graph it is 1.
func BFSLabels(g *Graph, treeIndex int) []string {
	labels := make([]string, len(g.Nodes))
	j := 1
	queue := []int32{g.Root.ID}
	seen := make([]bool, len(g.Nodes))
	seen[g.Root.ID] = true
	for len(queue) > 0 {
		n := &g.Nodes[queue[0]]
		queue = queue[1:]
		labels[n.ID] = fmt.Sprintf("m%d,%d", treeIndex, j)
		j++
		for _, c := range n.Children {
			if c >= 0 && g.Nodes[c].Kind == Mix && !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	return labels
}

// nodeName renders a node for humans: its BFS label for mixes, the fluid
// name for leaves.
func nodeName(g *Graph, n *Node, labels []string) string {
	if n.Kind == Leaf {
		return g.Target.Name(int(n.Fluid))
	}
	return labels[n.ID]
}

// Render draws the graph as an indented ASCII tree rooted at the target.
// Shared nodes (both outputs consumed) are drawn once and referenced by
// label afterwards.
func (g *Graph) Render() string {
	labels, vecs := BFSLabels(g, 1), g.Vectors()
	var b strings.Builder
	fmt.Fprintf(&b, "%s tree for %s (d=%d)\n", g.Algorithm, g.Target, g.Root.Level)
	drawn := make([]bool, len(g.Nodes))
	var rec func(id int32, prefix string, last bool)
	rec = func(id int32, prefix string, last bool) {
		n := &g.Nodes[id]
		connector := "├─ "
		childPrefix := prefix + "│  "
		if last {
			connector = "└─ "
			childPrefix = prefix + "   "
		}
		name := nodeName(g, n, labels)
		switch {
		case n.Kind == Leaf:
			fmt.Fprintf(&b, "%s%s%s (input)\n", prefix, connector, name)
		case drawn[id]:
			fmt.Fprintf(&b, "%s%s%s (shared, see above)\n", prefix, connector, name)
		default:
			drawn[id] = true
			fmt.Fprintf(&b, "%s%s%s L%d %s\n", prefix, connector, name, n.Level, vecs[id])
			rec(n.Children[0], childPrefix, false)
			rec(n.Children[1], childPrefix, true)
		}
	}
	drawn[g.Root.ID] = true
	fmt.Fprintf(&b, "%s L%d %s (root: 2 target droplets)\n", labels[g.Root.ID], g.Root.Level, vecs[g.Root.ID])
	rec(g.Root.Children[0], "", false)
	rec(g.Root.Children[1], "", true)
	return b.String()
}

// DOT exports the graph in Graphviz format: mixes as boxes, inputs as
// ellipses, waste outputs as dashed edges to a waste sink.
func (g *Graph) DOT() string {
	labels, vecs := BFSLabels(g, 1), g.Vectors()
	var b strings.Builder
	b.WriteString("digraph mixgraph {\n  rankdir=BT;\n")
	wasteCount := 0
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Kind == Leaf {
			fmt.Fprintf(&b, "  n%d [label=%q shape=ellipse];\n", n.ID, g.Target.Name(int(n.Fluid)))
			continue
		}
		fmt.Fprintf(&b, "  n%d [label=%q shape=box];\n", n.ID, fmt.Sprintf("%s\n%s", labels[i], vecs[i]))
		for _, c := range n.Children {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", c, n.ID)
		}
		if n != g.Root {
			for k := n.nparents; k < 2; k++ {
				fmt.Fprintf(&b, "  w%d [label=\"waste\" shape=point];\n", wasteCount)
				fmt.Fprintf(&b, "  n%d -> w%d [style=dashed];\n", n.ID, wasteCount)
				wasteCount++
			}
		}
	}
	fmt.Fprintf(&b, "  target [label=\"2x %s\" shape=doublecircle];\n  n%d -> target;\n}\n", g.Target, g.Root.ID)
	return b.String()
}
