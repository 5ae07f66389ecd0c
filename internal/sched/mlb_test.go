package sched

import (
	"testing"
	"time"

	"repro/internal/minmix"
	"repro/internal/mixgraph"
	"repro/internal/mtcs"
	"repro/internal/protocols"
	"repro/internal/ratio"
	"repro/internal/rma"
	"repro/internal/rsm"
	"repro/internal/synth"
)

// legacyMlb is the original mixer search Mlb replaced: OMS over a freshly
// built forest for every mixer count from 1 up.
func legacyMlb(base *mixgraph.Graph) int {
	cp := int(base.Root.Level)
	upper := 1
	for _, w := range base.LevelWidths() {
		if w > upper {
			upper = w
		}
	}
	for mc := 1; mc < upper; mc++ {
		if s, err := OMS(base, mc); err == nil && s.Cycles == cp {
			return mc
		}
	}
	return upper
}

// TestMlbMatchesLegacySearch checks the packed, lower-bound-started Mlb
// against the original linear OMS search on the Table 2 protocols and on a
// fixed sample of the paper's dataset (every 17th ratio), each under every
// base algorithm (MM, RMA, MTCS, RSM — core.AllAlgorithms).
func TestMlbMatchesLegacySearch(t *testing.T) {
	start := time.Now()
	ratios := []ratio.Ratio{protocols.PCR16().Ratio}
	for _, p := range protocols.Table2() {
		ratios = append(ratios, p.Ratio)
	}
	for i, r := range synth.PaperDataset() {
		if i%17 == 0 {
			ratios = append(ratios, r)
		}
	}
	builders := []struct {
		name  string
		build func(ratio.Ratio) (*mixgraph.Graph, error)
	}{{"MM", minmix.Build}, {"RMA", rma.Build}, {"MTCS", mtcs.Build}, {"RSM", rsm.Build}}
	graphs := 0
	for _, r := range ratios {
		for _, b := range builders {
			g, err := b.build(r)
			if err != nil {
				t.Fatalf("%s(%v): %v", b.name, r, err)
			}
			graphs++
			if got, want := Mlb(g), legacyMlb(g); got != want {
				t.Fatalf("%s(%v): Mlb = %d, legacy search %d", b.name, r, got, want)
			}
		}
	}
	if graphs < 1000 {
		t.Fatalf("only %d graphs compared; the sample shrank", graphs)
	}
	t.Logf("%d graphs in %v", graphs, time.Since(start))
}
