package stream

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/errormodel"
	"repro/internal/mixgraph"
	"repro/internal/plancache"
	"repro/internal/protocols"
	"repro/internal/ratio"
	"repro/internal/sched"
	"repro/internal/synth"
)

const selectionGoldenPath = "testdata/selection_golden.txt"

// Selection fixture coverage: every error-aware case is a (ratio, q′,
// scheduler, slack, D) tuple on the MM base with RMA and MTCS candidates,
// at the MM tree's Mlb mixers.
var (
	selectionStorage = []int{0, 6, 8}
	selectionSlack   = []float64{0, 0.25, 1e300}
	selectionDemands = []int{2, 7, 40, 128}
)

// selectionRatios are Table 2, PCR16 and every 97th PaperDataset ratio.
func selectionRatios() []ratio.Ratio {
	rs := []ratio.Ratio{protocols.PCR16().Ratio}
	for _, p := range protocols.Table2() {
		rs = append(rs, p.Ratio)
	}
	for i, r := range synth.PaperDataset() {
		if i%97 == 0 {
			rs = append(rs, r)
		}
	}
	return rs
}

// formatSelection renders everything an error-aware Result answers about
// its choice: the plan's totals and pass layout, the Selection's winner,
// prediction and cycle limit, and every candidate's score, floats exact.
func formatSelection(res *Result) string {
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	sel := res.Selection
	var b strings.Builder
	fmt.Fprintf(&b, "TC=%d D'=%d passes=%d E=%d sel=%s limit=%d pred=%s/%s",
		res.TotalCycles, res.PerPassDemand, len(res.Passes), res.Emitted,
		sel.Algorithm, sel.CycleLimit, g(sel.Predicted.Worst), g(sel.Predicted.Expected))
	for _, c := range sel.Candidates {
		flags := ""
		if c.Admissible {
			flags += "A"
		}
		if c.Selected {
			flags += "S"
		}
		fmt.Fprintf(&b, " %s:%d:%s:%s:%s", c.Algorithm, c.Cycles, g(c.Worst), g(c.Expected), flags)
	}
	return b.String()
}

// selectionRows plans every case of the selection fixture and returns its
// keys and answers, an error as its text. Each ratio's cases share one
// plan cache, so the later slacks of a (q′, scheduler, D) plan on a warm
// cache and the first on a cold one.
func selectionRows(t *testing.T) (keys, vals []string) {
	pol := errormodel.Params{SplitImbalance: 0.05, DispenseError: 0.01}
	for _, r := range selectionRatios() {
		var bases [3]*mixgraph.Graph
		for i, alg := range goldenAlgorithms {
			g, err := alg.build(r)
			if err != nil {
				t.Fatalf("%s(%v): %v", alg.name, r, err)
			}
			bases[i] = g
		}
		cache := plancache.New(256)
		mixers := sched.Mlb(bases[0])
		for _, q := range selectionStorage {
			for _, s := range goldenSchemes {
				for _, d := range selectionDemands {
					for _, slack := range selectionSlack {
						res, err := Run(Config{
							Base: bases[0], Mixers: mixers, Storage: q, Scheduler: s, Cache: cache,
							Candidates:  bases[1:],
							ErrorPolicy: &errormodel.Policy{Params: pol, CycleSlack: slack},
						}, d)
						val := ""
						if err != nil {
							val = "error: " + err.Error()
						} else {
							val = formatSelection(res)
						}
						keys = append(keys, fmt.Sprintf("sel/%v/m%d/q%d/%v/s%g/D%d", r, mixers, q, s, slack, d))
						vals = append(vals, val)
					}
				}
			}
		}
	}
	return keys, vals
}

// TestSelectionGolden pins every answer of error-aware planning against
// frozen fixtures: each candidate's total cycles, worst and expected
// error, admissibility and selection, the winner, its prediction and the
// cycle limit, the plan's total cycles and pass layout, and every error
// text. Regenerate with -update only for an intended change to the
// selection or the planner:
//
//	go test ./internal/stream -run TestSelectionGolden -update
func TestSelectionGolden(t *testing.T) {
	keys, vals := selectionRows(t)
	if *updateGolden {
		var b strings.Builder
		b.WriteString("# Frozen error-aware selections for TestSelectionGolden: one case per line, \"<case> | <value>\".\n")
		b.WriteString("# Case: sel/<ratio>/m<mixers>/q<q'>/<scheduler>/s<slack>/D<demand>, MM base, RMA and MTCS candidates.\n")
		b.WriteString("# Value: total cycles, D', passes, emitted, winner, cycle limit, predicted worst/expected error,\n")
		b.WriteString("# then per candidate <algorithm>:<cycles>:<worst>:<expected>:<A admissible><S selected>.\n")
		b.WriteString("# Regenerate with: go test ./internal/stream -run TestSelectionGolden -update\n")
		for i, k := range keys {
			fmt.Fprintf(&b, "%s | %s\n", k, vals[i])
		}
		if err := os.WriteFile(selectionGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, order := readFixture(t, selectionGoldenPath, "TestSelectionGolden")
	failures := 0
	fail := func(format string, args ...any) {
		failures++
		if failures <= 20 {
			t.Errorf(format, args...)
		}
	}
	seen := make(map[string]bool, len(keys))
	for i, k := range keys {
		seen[k] = true
		switch w, ok := want[k]; {
		case !ok:
			fail("%s: not in the fixture", k)
		case w != vals[i]:
			fail("%s:\n got  %s\n want %s", k, vals[i], w)
		}
	}
	for _, k := range order {
		if !seen[k] {
			fail("%s: fixture row no longer generated", k)
		}
	}
	if failures > 20 {
		t.Errorf("... and %d more mismatches", failures-20)
	}
	t.Logf("%d selection rows checked", len(keys))
}
