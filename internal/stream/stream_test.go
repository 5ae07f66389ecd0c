package stream

import (
	"errors"
	"testing"

	"repro/internal/minmix"
	"repro/internal/mixgraph"
	"repro/internal/ratio"
	"repro/internal/sched"
)

func pcrBase(t *testing.T) *mixgraph.Graph {
	t.Helper()
	g, err := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	if err != nil {
		t.Fatalf("minmix.Build: %v", err)
	}
	return g
}

// TestTable4SinglePassCells checks the Table 4 cells that the paper's own
// worked examples pin down exactly for the d=4 PCR ratio on 3 mixers:
// D=2 is one pass of the base tree (4 cycles, 6 waste droplets) for every
// storage budget, and q'=5 fits D=16 in one pass (7 cycles, 0 waste) and
// D=20 in one pass (11 cycles, 5 waste — Fig. 3).
func TestTable4SinglePassCells(t *testing.T) {
	base := pcrBase(t)
	cases := []struct {
		q, demand  int
		wantPasses int
		wantCycles int
		wantWaste  int64
	}{
		{3, 2, 1, 4, 6},
		{5, 2, 1, 4, 6},
		{7, 2, 1, 4, 6},
		{5, 16, 1, 7, 0},
		{7, 16, 1, 7, 0},
		{5, 20, 1, 11, 5},
		{7, 20, 1, 11, 5},
	}
	for _, c := range cases {
		res, err := Run(Config{Base: base, Mixers: 3, Storage: c.q, Scheduler: SRS}, c.demand)
		if err != nil {
			t.Fatalf("Run(q=%d, D=%d): %v", c.q, c.demand, err)
		}
		if len(res.Passes) != c.wantPasses {
			t.Errorf("q=%d D=%d: passes = %d, want %d", c.q, c.demand, len(res.Passes), c.wantPasses)
			continue
		}
		if res.TotalCycles != c.wantCycles {
			t.Errorf("q=%d D=%d: cycles = %d, want %d", c.q, c.demand, res.TotalCycles, c.wantCycles)
		}
		if res.TotalWaste != c.wantWaste {
			t.Errorf("q=%d D=%d: waste = %d, want %d", c.q, c.demand, res.TotalWaste, c.wantWaste)
		}
	}
}

func TestMultiPassRespectsStorage(t *testing.T) {
	base := pcrBase(t)
	for _, q := range []int{1, 2, 3} {
		res, err := Run(Config{Base: base, Mixers: 3, Storage: q, Scheduler: SRS}, 32)
		if err != nil {
			t.Fatalf("Run(q=%d): %v", q, err)
		}
		for i, p := range res.Passes {
			if p.Storage > q {
				t.Errorf("q=%d pass %d uses %d storage units", q, i, p.Storage)
			}
		}
		if res.Emitted < 32 {
			t.Errorf("q=%d: emitted %d < 32", q, res.Emitted)
		}
	}
}

func TestTighterStorageNeedsMorePasses(t *testing.T) {
	base := pcrBase(t)
	prev := 0
	for _, q := range []int{7, 5, 3, 2} {
		res, err := Run(Config{Base: base, Mixers: 3, Storage: q, Scheduler: SRS}, 32)
		if err != nil {
			t.Fatalf("Run(q=%d): %v", q, err)
		}
		if prev != 0 && len(res.Passes) < prev {
			t.Errorf("q=%d: %d passes, fewer than with more storage (%d)", q, len(res.Passes), prev)
		}
		prev = len(res.Passes)
	}
}

func TestUnlimitedStorageSinglePass(t *testing.T) {
	base := pcrBase(t)
	res, err := Run(Config{Base: base, Mixers: 3, Scheduler: MMS}, 32)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Passes) != 1 || res.PerPassDemand != 32 {
		t.Errorf("unlimited storage: %d passes, D'=%d; want 1 pass, D'=32", len(res.Passes), res.PerPassDemand)
	}
}

func TestInsufficientStorage(t *testing.T) {
	base := pcrBase(t)
	// With one mixer the serial base tree must park intermediates; q'=0 is
	// modelled as unlimited, so use a tiny positive budget that cannot fit.
	_, err := Run(Config{Base: base, Mixers: 1, Storage: 1, Scheduler: SRS}, 4)
	if err == nil {
		t.Skip("base tree fits in one storage unit on this instance")
	}
	if err != nil && !errorsIs(err, ErrStorage) {
		t.Errorf("unexpected error: %v", err)
	}
}

func errorsIs(err, target error) bool {
	for e := err; e != nil; {
		if e == target {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

func TestBadArguments(t *testing.T) {
	base := pcrBase(t)
	if _, err := Run(Config{Base: base, Mixers: 3}, 0); err == nil {
		t.Error("demand 0 accepted")
	}
	if _, err := Run(Config{Base: base, Mixers: 0}, 4); err == nil {
		t.Error("0 mixers accepted")
	}
}

func TestEmissionsOrderedAndComplete(t *testing.T) {
	base := pcrBase(t)
	res, err := Run(Config{Base: base, Mixers: 3, Storage: 3, Scheduler: SRS}, 32)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	es := res.Emissions()
	total := 0
	last := 0
	for _, e := range es {
		if e.Cycle < last {
			t.Error("emissions out of order")
		}
		last = e.Cycle
		total += e.Count
	}
	if total != res.Emitted {
		t.Errorf("emissions total %d, want %d", total, res.Emitted)
	}
}

func TestPassStartCyclesChain(t *testing.T) {
	base := pcrBase(t)
	res, err := Run(Config{Base: base, Mixers: 3, Storage: 2, Scheduler: SRS}, 24)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	next := 1
	for i, p := range res.Passes {
		if p.StartCycle != next {
			t.Errorf("pass %d starts at %d, want %d", i, p.StartCycle, next)
		}
		next += p.Plan.Cycles
	}
	if res.TotalCycles != next-1 {
		t.Errorf("TotalCycles = %d, want %d", res.TotalCycles, next-1)
	}
}

func TestSchedulerString(t *testing.T) {
	if MMS.String() != "MMS" || SRS.String() != "SRS" {
		t.Error("Scheduler.String mismatch")
	}
	if Scheduler(9).String() == "" {
		t.Error("unknown scheduler should render")
	}
}

func TestParseScheduler(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Scheduler
		ok   bool
	}{
		{"MMS", MMS, true},
		{"mms", MMS, true},
		{"SRS", SRS, true},
		{"srs", SRS, true},
		{"", 0, false},
		{"Srs", 0, false},
		{"OMS", 0, false},
		{"NOPE", 0, false},
	} {
		got, err := ParseScheduler(c.in)
		if c.ok {
			if err != nil || got != c.want {
				t.Errorf("ParseScheduler(%q) = %v, %v; want %v", c.in, got, err, c.want)
			}
			continue
		}
		if !errors.Is(err, ErrUnknownScheduler) {
			t.Errorf("ParseScheduler(%q) err = %v, want ErrUnknownScheduler", c.in, err)
		}
	}
}

func TestMaxSinglePassDemandMonotoneInStorage(t *testing.T) {
	base := pcrBase(t)
	prev := 0
	for _, q := range []int{1, 2, 3, 5, 7, 10} {
		cfg := Config{Base: base, Mixers: 3, Storage: q, Scheduler: SRS}
		d, err := MaxSinglePassDemand(cfg, 64)
		if err != nil {
			t.Fatalf("MaxSinglePassDemand(q=%d): %v", q, err)
		}
		if d < prev {
			t.Errorf("q=%d: D'=%d < D'(smaller q)=%d", q, d, prev)
		}
		prev = d
	}
}

func TestStreamMatchesSchedulerStorageAccounting(t *testing.T) {
	base := pcrBase(t)
	res, err := Run(Config{Base: base, Mixers: 3, Storage: 5, Scheduler: SRS}, 20)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	p := res.Passes[0]
	if got := sched.StorageUnits(p.Plan.Schedule()); got != p.Storage {
		t.Errorf("pass storage %d != schedule storage %d", p.Storage, got)
	}
}

func TestFirstEmission(t *testing.T) {
	base := pcrBase(t)
	res, err := Run(Config{Base: base, Mixers: 3, Scheduler: SRS}, 32)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	first := res.FirstEmission()
	// The first target pair leaves as soon as the first component tree's
	// root runs — the base tree's depth (4 cycles) at the earliest.
	if first < 4 || first > res.TotalCycles {
		t.Errorf("first emission at cycle %d (Tc=%d)", first, res.TotalCycles)
	}
	if es := res.Emissions(); es[0].Cycle != first {
		t.Errorf("FirstEmission %d != first event %d", first, es[0].Cycle)
	}
}

// TestCleanStreamAuditAllocs pins that the stream-count audit every run
// ends with allocates nothing when clean, at any pass count: its per-pass
// buffer is pooled, and the long case runs dozens of passes. The race
// detector's sync.Pool drops Puts at random, so the pin is skipped there.
func TestCleanStreamAuditAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	base := pcrBase(t)
	for _, c := range []struct{ q, demand, minPasses int }{
		{0, 20, 1},
		{5, 64, 2},
		{3, 600, 40},
	} {
		res, err := Run(Config{Base: base, Mixers: 3, Storage: c.q, Scheduler: SRS}, c.demand)
		if err != nil {
			t.Fatalf("Run(q=%d, D=%d): %v", c.q, c.demand, err)
		}
		if len(res.Passes) < c.minPasses {
			t.Fatalf("q=%d D=%d: %d passes, want at least %d", c.q, c.demand, len(res.Passes), c.minPasses)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := auditStream(res); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("q=%d D=%d (%d passes): clean stream audit allocates %.1f objects, want 0",
				c.q, c.demand, len(res.Passes), allocs)
		}
	}
}
