package stream

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/mixgraph"
	"repro/internal/plancache"
	"repro/internal/sched"
	"repro/internal/synth"
)

// TestMaxSinglePassDemandUnlimitedStorage: Config.Storage <= 0 means
// unlimited, which Run plans as one pass, so D' is the limit itself. The
// scan must not schedule anything: an unknown scheduler, which every
// scheduling path rejects, still gets the limit back.
func TestMaxSinglePassDemandUnlimitedStorage(t *testing.T) {
	base := pcrBase(t)
	for _, q := range []int{0, -1} {
		for _, s := range []Scheduler{MMS, SRS, Scheduler(9)} {
			cfg := Config{Base: base, Mixers: 3, Storage: q, Scheduler: s}
			if got, err := MaxSinglePassDemand(cfg, 40); err != nil || got != 40 {
				t.Errorf("q'=%d %s: MaxSinglePassDemand(limit 40) = %d, %v; want 40", q, s, got, err)
			}
		}
		res, err := Run(Config{Base: base, Mixers: 3, Storage: q, Scheduler: SRS}, 40)
		if err != nil || len(res.Passes) != 1 || res.PerPassDemand != 40 {
			t.Fatalf("q'=%d: Run(40) must plan one pass of 40, got %+v, %v", q, res, err)
		}
	}
}

// TestUnknownSchedulerIsTyped: every planning path reports an unknown
// scheduler as ErrUnknownScheduler, the storage-bounded scan included.
func TestUnknownSchedulerIsTyped(t *testing.T) {
	base := pcrBase(t)
	cfg := Config{Base: base, Mixers: 3, Storage: 4, Scheduler: Scheduler(9), Cache: plancache.New(1)}
	if _, err := MaxSinglePassDemand(cfg, 20); !errors.Is(err, ErrUnknownScheduler) {
		t.Errorf("demand scan: err = %v, want ErrUnknownScheduler", err)
	}
	if _, err := BuildPlan(cfg, 20); !errors.Is(err, ErrUnknownScheduler) {
		t.Errorf("BuildPlan: err = %v, want ErrUnknownScheduler", err)
	}
	f, err := forest.Build(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.Scheduler.Schedule(f, 3); !errors.Is(err, ErrUnknownScheduler) {
		t.Errorf("Scheduler.Schedule: err = %v, want ErrUnknownScheduler", err)
	}
}

// fullScheduleStorage returns S(d) for d = 0..limit (S[0] = S[1] = 0 unused,
// odd d as d+1) from full schedules: every candidate forest is grown one
// tree at a time, scheduled to its end, and its peak storage counted by
// Algorithm 3's literal walk over every droplet's storage interval.
func fullScheduleStorage(t testing.TB, g *mixgraph.Graph, s Scheduler, mc, limit int) []int {
	t.Helper()
	var pb forest.PackedBuilder
	var k sched.Kernel
	pb.Reset(g)
	out := make([]int, limit+1)
	for d := 2; d <= limit; d += 2 {
		pb.AddTree()
		pf := pb.Forest()
		run := k.MMS
		if s == SRS {
			run = k.SRS
		}
		if err := run(pf, mc); err != nil {
			t.Fatal(err)
		}
		slots := k.Assignments()
		profile := make([]int, k.Cycles()+1)
		for i := range pf.Tasks {
			for _, src := range pf.Tasks[i].In {
				if src.Kind() != forest.FromTask {
					continue
				}
				for cyc := slots[src.Ref()].Cycle + 1; cyc < slots[i].Cycle; cyc++ {
					profile[cyc]++
				}
			}
		}
		for _, v := range profile {
			out[d] = max(out[d], v)
		}
		if d+1 <= limit {
			out[d+1] = out[d]
		}
	}
	return out
}

// largestFit is the definition of D': the largest even d <= limit with
// S(d) <= q, or 0.
func largestFit(s []int, q, limit int) int {
	best := 0
	for d := 2; d <= limit && d < len(s); d += 2 {
		if s[d] <= q {
			best = d
		}
	}
	return best
}

// TestBoundedScanMatchesFullSchedules certifies the storage-bounded demand
// scan, which cuts each candidate's schedule at its first cycle over q',
// against D' from full schedules, on every 23rd PaperDataset ratio under
// MM, RMA and MTCS, both schedulers, one mixer and Mlb mixers, q' = 1..12,
// limit 128: 39 456 cases. The scan reads a plan cache of its own that
// stays empty, so every candidate is scheduled. Under the race detector it
// takes every 230th ratio instead.
func TestBoundedScanMatchesFullSchedules(t *testing.T) {
	const limit = 128
	stride := 23
	if raceDetector {
		stride *= 10
	}
	cache := plancache.New(1)
	cases, mismatches := 0, 0
	for i, r := range synth.PaperDataset() {
		if i%stride != 0 {
			continue
		}
		mm, err := minmix.Build(r)
		if err != nil {
			t.Fatal(err)
		}
		mlb := sched.Mlb(mm)
		for _, alg := range goldenAlgorithms {
			g, err := alg.build(r)
			if err != nil {
				t.Fatalf("%s(%s): %v", alg.name, r, err)
			}
			for _, s := range goldenSchemes {
				for _, mc := range []int{1, mlb} {
					full := fullScheduleStorage(t, g, s, mc, limit)
					for q := 1; q <= 12; q++ {
						cases++
						cache.Purge()
						cfg := Config{Base: g, Mixers: mc, Storage: q, Scheduler: s, Cache: cache}
						got, err := MaxSinglePassDemand(cfg, limit)
						if want := largestFit(full, q, limit); err != nil || got != want {
							if mismatches++; mismatches <= 10 {
								t.Errorf("%s/%s %s mc=%d q'=%d: bounded scan D'=%d (err %v), full schedules D'=%d",
									alg.name, r, s, mc, q, got, err, want)
							}
						}
					}
				}
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d cases differ", mismatches, cases)
	}
	t.Logf("%d (ratio, algorithm, scheduler, mixers, q') cases agree", cases)
}

// TestBoundedScanMatchesGoldenStorage checks the bounded scan against every
// S(d) row of the frozen fixture, for every q' from 1 to one past the row's
// largest S(d) (where every demand fits), at limits 2, 30, 64, 127 and 128
// (only 128 under the race detector).
func TestBoundedScanMatchesGoldenStorage(t *testing.T) {
	limits := []int{2, 30, 64, 127, 128}
	if raceDetector {
		limits = limits[len(limits)-1:]
	}
	graphs := map[string]*mixgraph.Graph{}
	for _, gg := range goldenGraphs(t) {
		graphs[gg.label] = gg.g
	}
	cache := plancache.New(1)
	vals, order := readGolden(t)
	rows := 0
	for _, key := range order {
		var label, scheme string
		var mc int
		if _, err := fmt.Sscanf(key, "storage %s %s mc=%d", &label, &scheme, &mc); err != nil {
			continue
		}
		rows++
		s := []int{0, 0}
		top := 0
		for _, f := range strings.Split(strings.TrimPrefix(vals[key], "S="), ",") {
			v, err := strconv.Atoi(f)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			s = append(s, v)
			top = max(top, v)
		}
		cfg := Config{Base: graphs[label], Mixers: mc, Scheduler: MMS, Cache: cache}
		if scheme == "SRS" {
			cfg.Scheduler = SRS
		}
		for q := 1; q <= top+1; q++ {
			cfg.Storage = q
			for _, limit := range limits {
				cache.Purge()
				got, err := MaxSinglePassDemand(cfg, limit)
				if want := largestFit(s, q, limit); err != nil || got != want {
					t.Errorf("%s q'=%d limit=%d: bounded scan D'=%d (err %v), fixture D'=%d", key, q, limit, got, err, want)
				}
			}
		}
	}
	if rows != 36 {
		t.Fatalf("%d storage rows in the fixture, want 36", rows)
	}
}

// TestPlanKernelReuseAfterCut: a demand scan returns its planKernel to the
// pool after cutting candidates short. A plan built on that kernel next
// must be byte-identical to the one the pointer API builds from scratch.
func TestPlanKernelReuseAfterCut(t *testing.T) {
	base := pcrBase(t)
	for _, s := range goldenSchemes {
		var k planKernel
		k.builder.Reset(base)
		cuts := 0
		for d := 2; d <= 64; d += 2 {
			k.builder.AddTree()
			fits, err := k.schedulePacked(s, k.builder.Forest(), 4, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !fits {
				cuts++
			}
		}
		if cuts == 0 {
			t.Fatalf("%s: test premise: no candidate was cut short", s)
		}
		pf, err := forest.BuildPacked(&k.builder, base, 20)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.schedulePacked(s, pf, 4, math.MaxInt); err != nil {
			t.Fatal(err)
		}
		got := k.sched.Materialize(pf.Materialize())
		f, err := forest.Build(base, 20)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Schedule(f, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != want.Cycles || !slices.Equal(got.Slots, want.Slots) || sched.Gantt(got) != sched.Gantt(want) {
			t.Errorf("%s: plan after a cut-short scan differs from a fresh build", s)
		}
	}
}

// TestScanOracleAtEveryLimit checks the top-down scan against the S(d)
// rows of the frozen fixture: for every row, every q' from 1 to 12 and
// every limit from 2 to 128, an uncached MaxSinglePassDemand must return
// the largest even d <= limit with S(d) <= q', or 0 if there is none.
// Under the race detector it takes every 9th limit and 128.
func TestScanOracleAtEveryLimit(t *testing.T) {
	graphs := map[string]*mixgraph.Graph{}
	for _, gg := range goldenGraphs(t) {
		graphs[gg.label] = gg.g
	}
	vals, order := readGolden(t)
	rows, cases := 0, 0
	for _, key := range order {
		var label, scheme string
		var mc int
		if _, err := fmt.Sscanf(key, "storage %s %s mc=%d", &label, &scheme, &mc); err != nil {
			continue
		}
		rows++
		s := []int{0, 0} // S(0) and S(1) are never read
		for _, f := range strings.Split(strings.TrimPrefix(vals[key], "S="), ",") {
			v, err := strconv.Atoi(f)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			s = append(s, v)
		}
		cfg := Config{Base: graphs[label], Mixers: mc, Scheduler: MMS}
		if scheme == "SRS" {
			cfg.Scheduler = SRS
		}
		for q := 1; q <= 12; q++ {
			cfg.Storage = q
			for limit := 2; limit <= storageScanMax; limit++ {
				if raceDetector && limit%9 != 0 && limit != storageScanMax {
					continue
				}
				want := 0
				for d := limit &^ 1; d >= 2; d -= 2 {
					if s[d] <= q {
						want = d
						break
					}
				}
				cases++
				if got, err := MaxSinglePassDemand(cfg, limit); err != nil || got != want {
					t.Errorf("%s q'=%d limit=%d: D'=%d (err %v), fixture D'=%d", key, q, limit, got, err, want)
				}
			}
		}
	}
	if rows != 36 {
		t.Fatalf("%d storage rows in the fixture, want 36", rows)
	}
	t.Logf("%d (row, q', limit) cases agree", cases)
}
