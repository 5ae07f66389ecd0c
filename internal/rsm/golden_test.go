package rsm

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/protocols"
	"repro/internal/ratio"
	"repro/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/rsm_golden.txt from the current builder")

const goldenPath = "testdata/rsm_golden.txt"

// goldenStride picks the PaperDataset ratios the fixture freezes: every
// goldenStride-th one.
const goldenStride = 7

// TestRSMGolden freezes every graph Build returns over Table 2, PCR16 and
// every 7th PaperDataset ratio: its Fingerprint (every node's kind, fluid,
// vector and links), Stats and LevelWidths. Regenerate with -update only
// for an intended change to the search.
func TestRSMGolden(t *testing.T) {
	ratios := []ratio.Ratio{protocols.PCR16().Ratio}
	for _, p := range protocols.Table2() {
		ratios = append(ratios, p.Ratio)
	}
	for i, r := range synth.PaperDataset() {
		if i%goldenStride == 0 {
			ratios = append(ratios, r)
		}
	}
	var b strings.Builder
	b.WriteString("# Frozen RSM graphs for TestRSMGolden: \"<ratio> | <fingerprint> <Stats> <LevelWidths>\".\n")
	b.WriteString("# Regenerate with: go test ./internal/rsm -run TestRSMGolden -update\n")
	for _, r := range ratios {
		g, err := Build(r)
		if err != nil {
			fmt.Fprintf(&b, "%s | error: %v\n", r, err)
			continue
		}
		fmt.Fprintf(&b, "%s | %016x %+v %v\n", r, g.Fingerprint(), g.Stats(), g.LevelWidths())
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/rsm -run TestRSMGolden -update to create it)", err)
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

// BenchmarkBuild times one RSM search and instantiation on Table 2's
// 26:21:2:2:3:3:199, the cost a cold "algorithm":"RSM" request pays in
// engine setup.
func BenchmarkBuild(b *testing.B) {
	r := ratio.MustParse("26:21:2:2:3:3:199")
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := Build(r); err != nil {
			b.Fatal(err)
		}
	}
}
