package dmfb

import (
	"strings"
	"testing"
)

// TestQuickstart exercises the documented top-level flow end to end.
func TestQuickstart(t *testing.T) {
	target := MustParseRatio("2:1:1:1:1:1:9")
	engine, err := NewEngine(Config{Target: target, Algorithm: MM, Scheduler: SRS, Storage: 5})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	batch, err := engine.Request(20)
	if err != nil {
		t.Fatalf("Request: %v", err)
	}
	if batch.Result.TotalCycles != 11 {
		t.Errorf("Tc = %d, want 11 (Fig. 3)", batch.Result.TotalCycles)
	}
}

func TestLowLevelPipeline(t *testing.T) {
	g, err := BuildGraph(MM, PCR16().Ratio)
	if err != nil {
		t.Fatalf("BuildGraph: %v", err)
	}
	f, err := BuildForest(g, 16)
	if err != nil {
		t.Fatalf("BuildForest: %v", err)
	}
	if s := f.Stats(); s.Waste != 0 || s.InputTotal != 16 {
		t.Errorf("forest stats W=%d I=%d, want 0 and 16", s.Waste, s.InputTotal)
	}
	sch, err := ScheduleMMS(f, MixerLowerBound(g))
	if err != nil {
		t.Fatalf("ScheduleMMS: %v", err)
	}
	if err := sch.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if q := StorageUnits(sch); q < 0 {
		t.Errorf("q = %d", q)
	}
	if !strings.Contains(Gantt(sch), "MMS schedule") {
		t.Error("Gantt output unexpected")
	}
}

func TestChipLayer(t *testing.T) {
	g, _ := BuildGraph(MM, PCR16().Ratio)
	f, _ := BuildForest(g, 20)
	sch, err := ScheduleSRS(f, 3)
	if err != nil {
		t.Fatalf("ScheduleSRS: %v", err)
	}
	plan, err := Execute(sch, PCRLayout())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if plan.TotalCost <= 0 {
		t.Error("no actuations counted")
	}
	m, err := TransportMatrixFor(PCRLayout())
	if err != nil || m.Len() == 0 {
		t.Errorf("TransportMatrixFor: %v", err)
	}
}

func TestBaselineFacade(t *testing.T) {
	b, err := Baseline(MM, PCR16().Ratio, 3, 20)
	if err != nil {
		t.Fatalf("Baseline: %v", err)
	}
	if b.Cycles != 40 {
		t.Errorf("baseline Tr = %d, want 40", b.Cycles)
	}
}

func TestStreamFacade(t *testing.T) {
	g, _ := BuildGraph(MM, PCR16().Ratio)
	res, err := Stream(StreamConfig{Base: g, Mixers: 3, Storage: 3, Scheduler: SRS}, 32)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if res.Emitted < 32 {
		t.Errorf("emitted %d, want >= 32", res.Emitted)
	}
}

func TestRatioHelpers(t *testing.T) {
	r, err := RatioFromPercent([]float64{10, 8, 0.8, 0.8, 1, 1, 78.4}, 4)
	if err != nil {
		t.Fatalf("RatioFromPercent: %v", err)
	}
	if !r.Equal(MustParseRatio("2:1:1:1:1:1:9")) {
		t.Errorf("RatioFromPercent = %v", r)
	}
	if _, err := NewRatio(1, 2); err == nil {
		t.Error("invalid ratio accepted")
	}
	if a, err := ParseAlgorithm("RMA"); err != nil || a != RMA {
		t.Errorf("ParseAlgorithm = %v, %v", a, err)
	}
}

func TestProtocolsFacade(t *testing.T) {
	if len(Protocols()) != 5 {
		t.Error("Protocols() should list the five Table 2 mixtures")
	}
	p, err := PCRAtDepth(6)
	if err != nil || p.Ratio.Sum() != 64 {
		t.Errorf("PCRAtDepth(6): %v, %v", p.Ratio, err)
	}
}

// TestFacadePlansThroughDefaultCache: NewEngine and Stream given no cache
// plan through the process-wide one, so PlanCacheStats sees their work.
func TestFacadePlansThroughDefaultCache(t *testing.T) {
	target := MustParseRatio("2:1:1:1:1:1:9")
	engine, err := NewEngine(Config{Target: target, Algorithm: MM, Scheduler: SRS, Storage: 5})
	if err != nil {
		t.Fatal(err)
	}
	before := PlanCacheStats()
	if _, err := engine.Request(20); err != nil {
		t.Fatal(err)
	}
	afterEngine := PlanCacheStats()
	if afterEngine.Lookups == before.Lookups {
		t.Errorf("NewEngine(...).Request left PlanCacheStats unchanged: %+v", afterEngine)
	}
	if _, err := Stream(StreamConfig{Base: engine.Base(), Mixers: 3, Storage: 3, Scheduler: SRS}, 21); err != nil {
		t.Fatal(err)
	}
	if after := PlanCacheStats(); after.Lookups == afterEngine.Lookups {
		t.Errorf("Stream left PlanCacheStats unchanged: %+v", after)
	}
}
