package sched

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/mixgraph"
	"repro/internal/ratio"
)

func pcrForest(t *testing.T, demand int) *forest.Forest {
	t.Helper()
	g, err := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	if err != nil {
		t.Fatalf("minmix.Build: %v", err)
	}
	f, err := forest.Build(g, demand)
	if err != nil {
		t.Fatalf("forest.Build: %v", err)
	}
	return f
}

// TestFig3And4 reproduces the paper's worked schedule: the D=20 PCR forest
// scheduled by SRS on three mixers completes in Tc=11 cycles using q=5
// storage units (Figs. 3 and 4).
func TestFig3And4(t *testing.T) {
	f := pcrForest(t, 20)
	s, err := SRS(f, 3)
	if err != nil {
		t.Fatalf("SRS: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if s.Cycles != 11 {
		t.Errorf("Tc = %d, want 11", s.Cycles)
	}
	if q := StorageUnits(s); q != 5 {
		t.Errorf("q = %d, want 5", q)
	}
}

func TestMMSPCR(t *testing.T) {
	f := pcrForest(t, 20)
	s, err := MMS(f, 3)
	if err != nil {
		t.Fatalf("MMS: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	lb := LowerBound(f, 3)
	if s.Cycles < lb {
		t.Errorf("Tc = %d below lower bound %d", s.Cycles, lb)
	}
	// 27 tasks on 3 mixers: at least 9 cycles; MMS should stay close.
	if s.Cycles > lb+3 {
		t.Errorf("MMS Tc = %d, much worse than lower bound %d", s.Cycles, lb)
	}
}

func TestOMSMatchesDepthAtMlb(t *testing.T) {
	// With Mlb mixers the base tree finishes in exactly d cycles.
	for _, rs := range []string{"2:1:1:1:1:1:9", "26:21:2:2:3:3:199", "128:123:5", "1:3"} {
		g, err := minmix.Build(ratio.MustParse(rs))
		if err != nil {
			t.Fatalf("minmix.Build(%s): %v", rs, err)
		}
		mlb := Mlb(g)
		s, err := OMS(g, mlb)
		if err != nil {
			t.Fatalf("OMS(%s): %v", rs, err)
		}
		if s.Cycles != g.Root.Level {
			t.Errorf("%s: OMS with Mlb=%d gives Tc=%d, want depth %d", rs, mlb, s.Cycles, g.Root.Level)
		}
	}
}

func TestMlbPCR(t *testing.T) {
	g, _ := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	if got := Mlb(g); got != 3 {
		t.Errorf("Mlb = %d, want 3 (paper §5)", got)
	}
}

func TestOMSSingleMixerIsSerial(t *testing.T) {
	g, _ := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	s, err := OMS(g, 1)
	if err != nil {
		t.Fatalf("OMS: %v", err)
	}
	if s.Cycles != 7 {
		t.Errorf("Tc = %d, want 7 (= Tms serial)", s.Cycles)
	}
}

func TestOMSTwoMixersPCR(t *testing.T) {
	// Hand-derived optimum: three level-1 mixes cannot all run in cycle 1 on
	// two mixers, so Tc = 5 (see also exhaustive check below).
	g, _ := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	s, err := OMS(g, 2)
	if err != nil {
		t.Fatalf("OMS: %v", err)
	}
	if s.Cycles != 5 {
		t.Errorf("Tc = %d, want 5", s.Cycles)
	}
}

// exactMakespan computes the optimal makespan of a forest on mc mixers by
// bitmask dynamic programming over scheduled-task sets. Only feasible for
// small forests (< 20 tasks).
func exactMakespan(f *forest.Forest, mc int) int {
	n := len(f.Tasks)
	if n > 20 {
		panic("exactMakespan: forest too large")
	}
	preds := make([]uint32, n)
	for i, t := range f.Tasks {
		for _, src := range t.In {
			if src.Kind == forest.FromTask {
				preds[i] |= 1 << uint(src.Task.ID)
			}
		}
	}
	full := uint32(1)<<uint(n) - 1
	const inf = 1 << 30
	dp := make([]int, full+1)
	for i := range dp {
		dp[i] = inf
	}
	dp[0] = 0
	for mask := uint32(0); mask <= full; mask++ {
		if dp[mask] == inf {
			continue
		}
		// Ready set: unscheduled tasks whose predecessors are in mask.
		var ready uint32
		for i := 0; i < n; i++ {
			bit := uint32(1) << uint(i)
			if mask&bit == 0 && preds[i]&^mask == 0 {
				ready |= bit
			}
		}
		if ready == 0 {
			continue
		}
		// Enumerate non-empty subsets of ready with <= mc tasks.
		for sub := ready; sub > 0; sub = (sub - 1) & ready {
			if bits.OnesCount32(sub) <= mc {
				next := mask | sub
				if dp[mask]+1 < dp[next] {
					dp[next] = dp[mask] + 1
				}
			}
		}
	}
	return dp[full]
}

func TestOMSOptimalAgainstExhaustive(t *testing.T) {
	// Certify Hu-style OMS optimality on every small random tree we can
	// afford to brute-force.
	rng := rand.New(rand.NewSource(42))
	checked := 0
	for len := 0; len < 400 && checked < 60; len++ {
		n := 2 + rng.Intn(6)
		parts := make([]int64, n)
		for i := range parts {
			parts[i] = 1
		}
		for rest := 16 - n; rest > 0; rest-- {
			parts[rng.Intn(n)]++
		}
		r, err := ratio.New(parts...)
		if err != nil {
			continue
		}
		g, err := minmix.Build(r)
		if err != nil {
			continue
		}
		f, err := forest.Build(g, 2)
		if err != nil || len2(f) > 14 {
			continue
		}
		for mc := 1; mc <= 3; mc++ {
			s, err := OMS(g, mc)
			if err != nil {
				t.Fatalf("OMS: %v", err)
			}
			if want := exactMakespan(f, mc); s.Cycles != want {
				t.Errorf("ratio %v mc=%d: OMS Tc=%d, optimal %d", r, mc, s.Cycles, want)
			}
		}
		checked++
	}
	if checked < 30 {
		t.Fatalf("only %d instances certified", checked)
	}
}

func len2(f *forest.Forest) int { return len(f.Tasks) }

func TestSRSNeverUsesMoreStorageThanMMSOnPaperRatios(t *testing.T) {
	// The paper reports SRS reducing storage vs MMS on average; on its five
	// example ratios (D=32, Mc=Mlb) the reduction holds instance-wise.
	for _, rs := range []string{
		"26:21:2:2:3:3:199",
		"128:123:5",
		"25:5:5:5:5:13:13:25:1:159",
		"9:17:26:9:195",
		"57:28:6:6:6:3:150",
	} {
		g, err := minmix.Build(ratio.MustParse(rs))
		if err != nil {
			t.Fatalf("minmix.Build(%s): %v", rs, err)
		}
		f, err := forest.Build(g, 32)
		if err != nil {
			t.Fatalf("forest.Build: %v", err)
		}
		mc := Mlb(g)
		mms, err := MMS(f, mc)
		if err != nil {
			t.Fatalf("MMS: %v", err)
		}
		srs, err := SRS(f, mc)
		if err != nil {
			t.Fatalf("SRS: %v", err)
		}
		qm, qs := StorageUnits(mms), StorageUnits(srs)
		if qs > qm {
			t.Errorf("%s: q(SRS)=%d > q(MMS)=%d", rs, qs, qm)
		}
		if srs.Cycles < mms.Cycles {
			t.Logf("%s: SRS faster than MMS (%d < %d) — allowed, just unusual", rs, srs.Cycles, mms.Cycles)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	f := pcrForest(t, 8)
	s, err := MMS(f, 2)
	if err != nil {
		t.Fatalf("MMS: %v", err)
	}
	// Precedence violation.
	bad := *s
	bad.Slots = append([]Assignment(nil), s.Slots...)
	for _, task := range f.Tasks {
		if task.InternalInputs() > 0 {
			bad.Slots[task.ID] = Assignment{Cycle: 1, Mixer: 1}
			break
		}
	}
	if bad.Validate() == nil {
		t.Error("Validate accepted a precedence violation")
	}
	// Double-booked mixer.
	bad2 := *s
	bad2.Slots = append([]Assignment(nil), s.Slots...)
	a, b := f.Tasks[0], f.Tasks[1]
	bad2.Slots[a.ID] = Assignment{Cycle: 1, Mixer: 1}
	bad2.Slots[b.ID] = Assignment{Cycle: 1, Mixer: 1}
	if bad2.Validate() == nil {
		t.Error("Validate accepted a double-booked mixer")
	}
	// Invalid mixer index.
	bad3 := *s
	bad3.Slots = append([]Assignment(nil), s.Slots...)
	bad3.Slots[0] = Assignment{Cycle: 1, Mixer: 99}
	if bad3.Validate() == nil {
		t.Error("Validate accepted an out-of-range mixer")
	}
	// Wrong Tc.
	bad4 := *s
	bad4.Cycles = s.Cycles + 1
	if bad4.Validate() == nil {
		t.Error("Validate accepted an inconsistent Tc")
	}
}

func TestNoMixers(t *testing.T) {
	f := pcrForest(t, 4)
	if _, err := MMS(f, 0); err == nil {
		t.Error("MMS with 0 mixers accepted")
	}
	if _, err := SRS(f, -1); err == nil {
		t.Error("SRS with negative mixers accepted")
	}
}

func TestStorageProfileMatchesSimulation(t *testing.T) {
	// Independent event-driven cross-check of Algorithm 3: walk the cycles,
	// tracking droplets parked between production and consumption.
	f := pcrForest(t, 20)
	for _, schedule := range []func(*forest.Forest, int) (*Schedule, error){MMS, SRS} {
		s, err := schedule(f, 3)
		if err != nil {
			t.Fatalf("schedule: %v", err)
		}
		type edge struct{ prod, cons int }
		var edges []edge
		for _, task := range f.Tasks {
			for _, c := range task.Consumers() {
				edges = append(edges, edge{int(s.Slots[task.ID].Cycle), int(s.Slots[c.ID].Cycle)})
			}
		}
		profile := StorageProfile(s)
		for cycle := 1; cycle <= s.Cycles; cycle++ {
			count := 0
			for _, e := range edges {
				if e.prod < cycle && cycle < e.cons {
					count++
				}
			}
			if profile[cycle] != count {
				t.Errorf("%s cycle %d: profile=%d, simulation=%d", s.Algorithm, cycle, profile[cycle], count)
			}
		}
	}
}

func TestBaselineStorageFormula(t *testing.T) {
	cases := []struct{ d, mc, want int }{
		{4, 3, 2}, // floor(log2 3)=1 -> 4-2
		{4, 1, 3},
		{8, 3, 6},
		{8, 8, 4},
		{2, 8, 0}, // clamped
	}
	for _, c := range cases {
		if got := BaselineStorage(c.d, c.mc); got != c.want {
			t.Errorf("BaselineStorage(%d, %d) = %d, want %d", c.d, c.mc, got, c.want)
		}
	}
}

func TestStoredDroplets(t *testing.T) {
	f := pcrForest(t, 20)
	s, _ := SRS(f, 3)
	for _, sd := range StoredDroplets(s) {
		if sd.From != int(s.Slots[sd.Producer.ID].Cycle)+1 || sd.To != int(s.Slots[sd.Consumer.ID].Cycle)-1 {
			t.Fatalf("StoredDroplet interval inconsistent: %+v", sd)
		}
	}
}

func TestGanttSmoke(t *testing.T) {
	f := pcrForest(t, 20)
	s, _ := SRS(f, 3)
	out := Gantt(s)
	for _, want := range []string{"SRS schedule", "M1", "M3", "store", "targets:", "m1,1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Gantt missing %q:\n%s", want, out)
		}
	}
}

func TestQuickSchedulersAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		parts := make([]int64, n)
		for i := range parts {
			parts[i] = 1
		}
		for rest := 32 - n; rest > 0; rest-- {
			parts[rng.Intn(n)]++
		}
		r, err := ratio.New(parts...)
		if err != nil {
			return false
		}
		g, err := minmix.Build(r)
		if err != nil {
			return false
		}
		fo, err := forest.Build(g, 1+rng.Intn(40))
		if err != nil {
			return false
		}
		mc := 1 + rng.Intn(5)
		for _, schedule := range []func(*forest.Forest, int) (*Schedule, error){MMS, SRS} {
			s, err := schedule(fo, mc)
			if err != nil || s.Validate() != nil {
				return false
			}
			if s.Cycles < LowerBound(fo, mc) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestScheduleOverDAGBase(t *testing.T) {
	// MTCS-style shared bases must also schedule correctly; build a shared
	// DAG by hand and push it through both schedulers.
	b := mixgraph.NewBuilder(ratio.MustNew(1, 1, 1, 1))
	sNode := b.Mix(b.Leaf(0), b.Leaf(1))
	t1 := b.Mix(sNode, b.Leaf(2))
	t2 := b.Mix(sNode, b.Leaf(3))
	root := b.Mix(t1, t2)
	g, err := b.Build(root, "dag")
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	fo, err := forest.Build(g, 10)
	if err != nil {
		t.Fatalf("forest.Build: %v", err)
	}
	if err := fo.Validate(); err != nil {
		t.Fatalf("forest.Validate: %v", err)
	}
	for _, schedule := range []func(*forest.Forest, int) (*Schedule, error){MMS, SRS} {
		s, err := schedule(fo, 2)
		if err != nil {
			t.Fatalf("schedule: %v", err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Algorithm, err)
		}
	}
}
