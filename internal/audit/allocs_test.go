package audit

import (
	"testing"

	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/plancache"
	"repro/internal/ratio"
	"repro/internal/sched"
)

// TestCleanAuditAllocs pins the clean-path cost of the stream-count audit
// and the packed plan audit: they run on every plan the serving layer
// builds, so a passing check must not materialise violation messages. A
// clean CheckStreamCounts may allocate only the Report, and so may a clean
// CheckPacked at any demand: its scratch buffer is pooled. The race
// detector's sync.Pool drops Puts at random, so that pin is skipped there.
func TestCleanAuditAllocs(t *testing.T) {
	c := StreamCounts{
		Demand:        20,
		PerPassDemand: 8,
		Emitted:       20,
		TotalCycles:   15,
		TotalWaste:    6,
		TotalInputs:   30,
		Passes: []PassCounts{
			{Emits: 8, Cycles: 5, Waste: 2, Inputs: 10, StartCycle: 1},
			{Emits: 8, Cycles: 5, Waste: 2, Inputs: 10, StartCycle: 6},
			{Emits: 4, Cycles: 5, Waste: 2, Inputs: 10, StartCycle: 11},
		},
	}
	if r := CheckStreamCounts(c); !r.Clean() {
		t.Fatalf("fixture fails its own audit: %v", r.Violations)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if !CheckStreamCounts(c).Clean() {
			t.Fatal("audit failed")
		}
	}); allocs > 1 {
		t.Fatalf("clean CheckStreamCounts allocates %.1f objects, want <= 1 (the Report)", allocs)
	}

	g, err := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	if err != nil {
		t.Fatal(err)
	}
	for _, demand := range []int{16, 128, 1000} {
		pf, err := forest.BuildPacked(forest.NewPackedBuilder(g), g, demand)
		if err != nil {
			t.Fatal(err)
		}
		var k sched.Kernel
		if err := k.SRS(pf, 3); err != nil {
			t.Fatal(err)
		}
		p := plancache.NewPacked(pf, k.Assignments(), "SRS", 3, k.Cycles(), k.Peak())
		if r := CheckPacked(p); !r.Clean() {
			t.Fatalf("D=%d: packed plan fails its own audit: %v", demand, r.Err())
		}
		if raceDetector {
			continue
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if !CheckPacked(p).Clean() {
				t.Fatal("audit failed")
			}
		}); allocs > 1 {
			t.Fatalf("clean CheckPacked allocates %.1f objects at D=%d, want <= 1 (the Report)", allocs, demand)
		}
	}
}

// TestCleanPlanAuditAllocs pins the clean-path cost of CheckPlan, the audit
// every plan the serving layer builds passes: a fixed handful of
// allocations — Reports, one word buffer, the Stats inputs, per-cycle
// tables — and none per task, tree or cycle, so the PCR plan at D=128
// costs exactly the allocations of the one at D=16.
func TestCleanPlanAuditAllocs(t *testing.T) {
	g, err := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	if err != nil {
		t.Fatal(err)
	}
	allocs := map[int]float64{}
	for _, demand := range []int{16, 128} {
		f, err := forest.Build(g, demand)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.SRS(f, 3)
		if err != nil {
			t.Fatal(err)
		}
		allocs[demand] = testing.AllocsPerRun(50, func() {
			if !CheckPlan(f, s).Clean() {
				t.Fatal("audit failed")
			}
		})
	}
	if allocs[16] != allocs[128] {
		t.Fatalf("clean CheckPlan allocates %.1f objects at D=16 but %.1f at D=128: some allocation is per task",
			allocs[16], allocs[128])
	}
	if allocs[16] > 10 {
		t.Fatalf("clean CheckPlan allocates %.1f objects, want <= 10", allocs[16])
	}
	t.Logf("clean CheckPlan: %.0f allocations at D=16 and D=128", allocs[16])
}
