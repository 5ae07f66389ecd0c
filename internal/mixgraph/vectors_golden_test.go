package mixgraph_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/minmix"
	"repro/internal/mixgraph"
	"repro/internal/mtcs"
	"repro/internal/protocols"
	"repro/internal/ratio"
	"repro/internal/rma"
	"repro/internal/rsm"
	"repro/internal/synth"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files from the current builders")

const vectorsGoldenPath = "testdata/vectors_golden.txt"

// TestVectorsGolden freezes a SHA-256 digest of every node's CF vector (in
// node order, as Vector.Key) of the MM, RMA, MTCS and RSM graphs over
// Table 2, PCR16 and every 7th PaperDataset ratio. Regenerate with -update
// only for an intended change to a builder.
func TestVectorsGolden(t *testing.T) {
	ratios := []ratio.Ratio{protocols.PCR16().Ratio}
	for _, p := range protocols.Table2() {
		ratios = append(ratios, p.Ratio)
	}
	for i, r := range synth.PaperDataset() {
		if i%7 == 0 {
			ratios = append(ratios, r)
		}
	}
	builders := []struct {
		name  string
		build func(ratio.Ratio) (*mixgraph.Graph, error)
	}{{"MM", minmix.Build}, {"RMA", rma.Build}, {"MTCS", mtcs.Build}, {"RSM", rsm.Build}}
	var b strings.Builder
	b.WriteString("# Node CF-vector digests for TestVectorsGolden: \"<algorithm> <ratio> | <nodes> <sha256 of the node keys>\".\n")
	b.WriteString("# Regenerate with: go test ./internal/mixgraph -run TestVectorsGolden -update\n")
	var key []byte
	for _, bl := range builders {
		for _, r := range ratios {
			g, err := bl.build(r)
			if err != nil {
				fmt.Fprintf(&b, "%s %s | error: %v\n", bl.name, r, err)
				continue
			}
			h := sha256.New()
			vecs := g.Vectors()
			for _, v := range vecs {
				key = append(v.AppendKey(key[:0]), '\n')
				h.Write(key)
			}
			fmt.Fprintf(&b, "%s %s | %d %x\n", bl.name, r, len(vecs), h.Sum(nil)[:16])
		}
	}
	if *update {
		if err := os.WriteFile(vectorsGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(vectorsGoldenPath)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/mixgraph -run TestVectorsGolden -update to create it)", err)
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
