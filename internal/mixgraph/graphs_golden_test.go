package mixgraph_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/minmix"
	"repro/internal/mixgraph"
	"repro/internal/mtcs"
	"repro/internal/ratio"
	"repro/internal/rma"
	"repro/internal/synth"
)

const graphsGoldenPath = "testdata/graphs_golden.txt"

// TestGraphsGolden freezes every MM, RMA and MTCS graph over every 7th
// PaperDataset ratio: its Fingerprint (every node's kind, fluid and
// links), Stats, LevelWidths and each node's PosLevel in node order, as
// TestRSMGolden does for RSM. Regenerate with -update only for an intended
// change to a builder or to the graph representation.
func TestGraphsGolden(t *testing.T) {
	var ratios []ratio.Ratio
	for i, r := range synth.PaperDataset() {
		if i%7 == 0 {
			ratios = append(ratios, r)
		}
	}
	builders := []struct {
		name  string
		build func(ratio.Ratio) (*mixgraph.Graph, error)
	}{{"MM", minmix.Build}, {"RMA", rma.Build}, {"MTCS", mtcs.Build}}
	var b strings.Builder
	b.WriteString("# Frozen base graphs for TestGraphsGolden: \"<algorithm> <ratio> | <fingerprint> <Stats> <LevelWidths> <PosLevel per node>\".\n")
	b.WriteString("# Regenerate with: go test ./internal/mixgraph -run TestGraphsGolden -update\n")
	for _, bl := range builders {
		for _, r := range ratios {
			g, err := bl.build(r)
			if err != nil {
				fmt.Fprintf(&b, "%s %s | error: %v\n", bl.name, r, err)
				continue
			}
			pos := make([]int, len(g.Nodes))
			for i := range g.Nodes {
				pos[i] = int(g.Nodes[i].PosLevel)
			}
			fmt.Fprintf(&b, "%s %s | %016x %+v %v %v\n", bl.name, r, g.Fingerprint(), g.Stats(), g.LevelWidths(), pos)
		}
	}
	if *update {
		if err := os.WriteFile(graphsGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(graphsGoldenPath)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/mixgraph -run TestGraphsGolden -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d: got %q, want %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}
