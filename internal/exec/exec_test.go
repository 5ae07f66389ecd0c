package exec

import (
	"errors"
	"testing"

	"repro/internal/chip"
	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/ratio"
	"repro/internal/route"
	"repro/internal/sched"
)

func pcrSchedule(t testing.TB, demand, mixers int) *sched.Schedule {
	t.Helper()
	g, err := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	if err != nil {
		t.Fatalf("minmix.Build: %v", err)
	}
	f, err := forest.Build(g, demand)
	if err != nil {
		t.Fatalf("forest.Build: %v", err)
	}
	s, err := sched.SRS(f, mixers)
	if err != nil {
		t.Fatalf("SRS: %v", err)
	}
	return s
}

func TestExecutePCRForest(t *testing.T) {
	s := pcrSchedule(t, 20, 3)
	plan, err := Execute(s, chip.PCRLayout())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if plan.TotalCost <= 0 {
		t.Fatal("zero transport cost")
	}
	// Droplet accounting: 25 dispenses, 20 emissions, 5 discards; internal
	// hand-offs appear as transfer or store+fetch pairs.
	counts := map[Purpose]int{}
	for _, m := range plan.Moves {
		counts[m.Purpose]++
	}
	if counts[Dispense] != 25 {
		t.Errorf("dispenses = %d, want 25", counts[Dispense])
	}
	if counts[Emit] != 20 {
		t.Errorf("emissions = %d, want 20", counts[Emit])
	}
	if counts[Discard] != 5 {
		t.Errorf("discards = %d, want 5", counts[Discard])
	}
	if counts[Store] != counts[Fetch] {
		t.Errorf("stores (%d) != fetches (%d)", counts[Store], counts[Fetch])
	}
	// Internal edges = transfers + stored hand-offs.
	internal := counts[Transfer] + counts[Store]
	if internal != 29 {
		t.Errorf("internal hand-offs = %d, want 29", internal)
	}
	// The schedule needs q=5; the layout has exactly 5 cells.
	if used := plan.StorageCellsUsed(); used > 5 {
		t.Errorf("used %d storage cells, layout has 5", used)
	}
}

// TestStreamingBeatsRepeatedBaseline reproduces the §5 comparison: for
// D = 20 target droplets of the PCR master-mix on the Fig. 5-style layout,
// the mixing-forest engine actuates far fewer electrodes than repeating the
// base MM tree 10 times (the paper reports 386 vs 980 — a 2.5x gap).
func TestStreamingBeatsRepeatedBaseline(t *testing.T) {
	l := chip.PCRLayout()
	// Streaming engine: one D=20 forest pass.
	sForest := pcrSchedule(t, 20, 3)
	forestPlan, err := Execute(sForest, l)
	if err != nil {
		t.Fatalf("Execute(forest): %v", err)
	}
	// Repeated baseline: the base tree once, times 10 passes.
	g, _ := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	sBase, err := sched.OMS(g, 3)
	if err != nil {
		t.Fatalf("OMS: %v", err)
	}
	basePlan, err := Execute(sBase, l)
	if err != nil {
		t.Fatalf("Execute(base): %v", err)
	}
	repeated := 10 * basePlan.TotalCost
	if forestPlan.TotalCost >= repeated {
		t.Errorf("forest engine %d actuations, repeated baseline %d — expected the engine to win",
			forestPlan.TotalCost, repeated)
	}
	ratio := float64(repeated) / float64(forestPlan.TotalCost)
	t.Logf("actuations: forest=%d repeated=%d (%.2fx; paper: 386 vs 980, 2.54x)",
		forestPlan.TotalCost, repeated, ratio)
	if ratio < 1.5 {
		t.Errorf("improvement ratio %.2f, expected at least 1.5x", ratio)
	}
}

func TestStorageOverflowDetected(t *testing.T) {
	s := pcrSchedule(t, 20, 3) // needs q=5
	l, err := chip.PCRLayoutWithStorage(4)
	if err != nil {
		t.Fatalf("PCRLayoutWithStorage: %v", err)
	}
	if _, err := Execute(s, l); !errors.Is(err, ErrStorageOverflow) {
		t.Errorf("want ErrStorageOverflow, got %v", err)
	}
}

func TestMissingModules(t *testing.T) {
	s := pcrSchedule(t, 4, 2)
	// Strip output port.
	l := chip.PCRLayout()
	var noOut chip.Layout
	noOut.Width, noOut.Height = l.Width, l.Height
	for _, m := range l.Modules {
		if m.Kind != chip.Output {
			noOut.Modules = append(noOut.Modules, m)
		}
	}
	if _, err := Execute(s, &noOut); !errors.Is(err, ErrNoOutput) {
		t.Errorf("want ErrNoOutput, got %v", err)
	}
	// Too few mixers.
	s3 := pcrSchedule(t, 4, 3)
	var oneMixer chip.Layout
	oneMixer.Width, oneMixer.Height = l.Width, l.Height
	seen := 0
	for _, m := range l.Modules {
		if m.Kind == chip.Mixer {
			seen++
			if seen > 1 {
				continue
			}
		}
		oneMixer.Modules = append(oneMixer.Modules, m)
	}
	if _, err := Execute(s3, &oneMixer); !errors.Is(err, ErrNoMixerModules) {
		t.Errorf("want ErrNoMixerModules, got %v", err)
	}
}

func TestMovesSortedAndCostsConsistent(t *testing.T) {
	s := pcrSchedule(t, 16, 3)
	l := chip.PCRLayout()
	plan, err := Execute(s, l)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	sum := 0
	last := 0
	for _, m := range plan.Moves {
		if m.Cycle < last {
			t.Fatal("moves not cycle-sorted")
		}
		last = m.Cycle
		sum += m.Cost
		if m.Cost < 0 {
			t.Fatalf("negative cost move %+v", m)
		}
	}
	if sum != plan.TotalCost {
		t.Errorf("TotalCost %d != sum of moves %d", plan.TotalCost, sum)
	}
}

func TestFlowSymmetricAccumulation(t *testing.T) {
	s := pcrSchedule(t, 8, 2)
	plan, err := Execute(s, chip.PCRLayout())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	total := 0
	for k, n := range plan.Flow {
		if k[0] > k[1] {
			t.Errorf("flow key %v not canonical", k)
		}
		total += n
	}
	if total != len(plan.Moves) {
		t.Errorf("flow total %d != move count %d", total, len(plan.Moves))
	}
}

func TestPlacementOptimizerReducesCost(t *testing.T) {
	s := pcrSchedule(t, 20, 3)
	l := chip.PCRLayout()
	plan, err := Execute(s, l)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	matrix, err := route.MatrixFor(l)
	if err != nil {
		t.Fatalf("matrix: %v", err)
	}
	startCost := chip.PlacementCost(l, plan.Flow, matrix)
	opt, optCost, err := chip.OptimizePlacement(l, plan.Flow, matrix, 400, 1)
	if err != nil {
		t.Fatalf("OptimizePlacement: %v", err)
	}
	if optCost > startCost {
		t.Errorf("optimizer worsened cost: %d -> %d", startCost, optCost)
	}
	if err := opt.Validate(); err != nil {
		t.Errorf("optimized layout invalid: %v", err)
	}
	// Re-executing on the optimized layout must still work and not cost more.
	plan2, err := Execute(s, opt)
	if err != nil {
		t.Fatalf("Execute(optimized): %v", err)
	}
	t.Logf("placement: original %d, optimized %d actuations", plan.TotalCost, plan2.TotalCost)
}

func TestExecuteOptimizedNeverWorse(t *testing.T) {
	s := pcrSchedule(t, 20, 3)
	l := chip.PCRLayout()
	plain, err := Execute(s, l)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	opt, err := ExecuteOptimized(s, l)
	if err != nil {
		t.Fatalf("ExecuteOptimized: %v", err)
	}
	if opt.TotalCost > plain.TotalCost {
		t.Errorf("optimized binding %d worse than identity %d", opt.TotalCost, plain.TotalCost)
	}
	t.Logf("mixer binding: identity %d, optimized %d actuations", plain.TotalCost, opt.TotalCost)
}

func TestExecuteOnAutoLayout(t *testing.T) {
	// A 10-fluid protocol on an auto-generated floorplan, end to end.
	g, err := minmix.Build(ratio.MustParse("25:5:5:5:5:13:13:25:1:159"))
	if err != nil {
		t.Fatalf("minmix.Build: %v", err)
	}
	f, err := forest.Build(g, 16)
	if err != nil {
		t.Fatalf("forest.Build: %v", err)
	}
	mc := sched.Mlb(g)
	s, err := sched.SRS(f, mc)
	if err != nil {
		t.Fatalf("SRS: %v", err)
	}
	l, err := chip.AutoLayout(10, mc, sched.StorageUnits(s))
	if err != nil {
		t.Fatalf("AutoLayout: %v", err)
	}
	plan, err := Execute(s, l)
	if err != nil {
		t.Fatalf("Execute on auto layout: %v", err)
	}
	if plan.TotalCost <= 0 {
		t.Error("no transport cost")
	}
}
