// Closed-form audits over the bundled protocols, exercised through the real
// planners (external test package so it may import core and stream without a
// cycle). These are the satellite table-driven tests of the audit layer:
// |F| = ⌈D/2⌉, the zero-waste theorem, and the Table 4 pass counts, all
// checked by the auditor itself on real plans.
package audit_test

import (
	"errors"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/protocols"
	"repro/internal/sched"
	"repro/internal/stream"
)

// TestClosedFormsAcrossProtocols plans every bundled protocol (the PCR
// running example plus the five Table 2 mixtures) across a demand sweep and
// asserts (a) the auditor passes the plan, and (b) the closed forms the
// auditor encodes match direct computation.
func TestClosedFormsAcrossProtocols(t *testing.T) {
	protos := append([]protocols.Protocol{protocols.PCR16()}, protocols.Table2()...)
	demands := []int{1, 2, 3, 7, 16, 20, 33}
	for _, p := range protos {
		for _, D := range demands {
			base, err := core.MM.Build(p.Ratio)
			if err != nil {
				t.Fatalf("%s: MM build: %v", p.Key, err)
			}
			f, err := forest.Build(base, D)
			if err != nil {
				t.Fatalf("%s D=%d: forest.Build: %v", p.Key, D, err)
			}
			rep := audit.CheckForest(f)
			if !rep.Clean() {
				t.Fatalf("%s D=%d: forest audit: %v", p.Key, D, rep.Err())
			}
			if rep.Checks == 0 {
				t.Fatalf("%s D=%d: auditor performed no checks", p.Key, D)
			}
			st := f.Stats()
			if want := (D + 1) / 2; st.Trees != want {
				t.Errorf("%s D=%d: |F| = %d, want ⌈D/2⌉ = %d", p.Key, D, st.Trees, want)
			}
			if st.InputTotal != int64(st.Targets)+st.Waste {
				t.Errorf("%s D=%d: I=%d != T=%d + W=%d", p.Key, D, st.InputTotal, st.Targets, st.Waste)
			}
			s, err := sched.SRS(f, 3)
			if err != nil {
				t.Fatalf("%s D=%d: SRS: %v", p.Key, D, err)
			}
			if rep := audit.CheckSchedule(s); !rep.Clean() {
				t.Fatalf("%s D=%d: schedule audit: %v", p.Key, D, rep.Err())
			}
		}
	}
}

// TestZeroWasteTheorem pins the zero-waste closed form W = 0 for emitted
// counts that are multiples of 2^d on the MM base (§4), and that waste is
// strictly positive one droplet short of the period.
func TestZeroWasteTheorem(t *testing.T) {
	p := protocols.PCR16() // d = 4, period 16
	base, err := core.MM.Build(p.Ratio)
	if err != nil {
		t.Fatal(err)
	}
	for _, D := range []int{16, 32, 48, 64} {
		f, err := forest.Build(base, D)
		if err != nil {
			t.Fatalf("D=%d: %v", D, err)
		}
		if rep := audit.CheckForest(f); !rep.Clean() {
			t.Fatalf("D=%d: %v", D, rep.Err())
		}
		if w := f.Stats().Waste; w != 0 {
			t.Errorf("D=%d: W=%d, zero-waste theorem wants 0", D, w)
		}
	}
	// D=15 emits 16 droplets (demand rounded up to even), which IS a
	// multiple of 2^4 — the zero-waste theorem applies to the emitted
	// count, not the nominal demand.
	f, err := forest.Build(base, 15)
	if err != nil {
		t.Fatal(err)
	}
	if rep := audit.CheckForest(f); !rep.Clean() {
		t.Fatalf("D=15: %v", rep.Err())
	}
	if w := f.Stats().Waste; w != 0 {
		t.Errorf("D=15 (emits 16): W=%d, zero-waste theorem applies to emitted count", w)
	}
	// One tree short of the period the theorem is silent but waste exists.
	f, err = forest.Build(base, 14)
	if err != nil {
		t.Fatal(err)
	}
	if rep := audit.CheckForest(f); !rep.Clean() {
		t.Fatalf("D=14: %v", rep.Err())
	}
	if w := f.Stats().Waste; w <= 0 {
		t.Errorf("D=14: W=%d, want positive waste off the 2^d grid", w)
	}
}

// TestTable4PassCounts re-runs the Table 4 storage sweep on the PCR d=4
// protocol and checks the pass-count closed form ⌈D/D'⌉ through the real
// streaming engine; stream.Run internally audits each plan, so a non-nil
// result here is already auditor-approved.
func TestTable4PassCounts(t *testing.T) {
	p := protocols.PCR16()
	base, err := core.MM.Build(p.Ratio)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		q, demand, wantPasses int
	}{
		{3, 2, 1},
		{3, 16, 2},
		{3, 20, 2},
		{3, 32, 3},
		{5, 16, 1},
		{5, 20, 1},
		{7, 32, 1},
	}
	for _, c := range cases {
		res, err := stream.Run(stream.Config{Base: base, Mixers: 3, Storage: c.q, Scheduler: stream.SRS}, c.demand)
		if err != nil {
			t.Fatalf("q=%d D=%d: %v", c.q, c.demand, err)
		}
		if len(res.Passes) != c.wantPasses {
			t.Errorf("q=%d D=%d: %d passes, want %d", c.q, c.demand, len(res.Passes), c.wantPasses)
		}
		wantPasses := (c.demand + res.PerPassDemand - 1) / res.PerPassDemand
		if len(res.Passes) != wantPasses {
			t.Errorf("q=%d D=%d: %d passes, closed form ⌈D/D'⌉ = %d", c.q, c.demand, len(res.Passes), wantPasses)
		}
	}
}

// TestTamperedScheduleViolates corrupts a valid schedule and asserts the
// auditor reports a typed Structure violation wrapping ErrViolation.
func TestTamperedScheduleViolates(t *testing.T) {
	p := protocols.PCR16()
	base, err := core.MM.Build(p.Ratio)
	if err != nil {
		t.Fatal(err)
	}
	f, err := forest.Build(base, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.SRS(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Corruption: run a consumer in the same cycle slot as its producer's
	// mixer neighbour — double-book mixer 1 at cycle 1.
	s.Slots[len(s.Slots)-1] = s.Slots[0]
	rep := audit.CheckSchedule(s)
	if rep.Clean() {
		t.Fatal("auditor passed a double-booked schedule")
	}
	if rep.Violations[0].Code != audit.Structure {
		t.Fatalf("violation code %v, want structure", rep.Violations[0].Code)
	}
	if !errors.Is(rep.Err(), audit.ErrViolation) {
		t.Fatalf("audit error %v does not wrap ErrViolation", rep.Err())
	}
}

// TestTamperedStreamCountsViolate corrupts multi-pass bookkeeping and checks
// the auditor flags each corruption with the right code.
func TestTamperedStreamCountsViolate(t *testing.T) {
	good := audit.StreamCounts{
		Demand: 10, PerPassDemand: 4, Storage: 5, Emitted: 10, TotalCycles: 30,
		TotalWaste: 6, TotalInputs: 16,
		Passes: []audit.PassCounts{
			{Emits: 4, Cycles: 10, Waste: 2, Inputs: 6, StartCycle: 1, Storage: 5},
			{Emits: 4, Cycles: 10, Waste: 2, Inputs: 6, StartCycle: 11, Storage: 5},
			{Emits: 2, Cycles: 10, Waste: 2, Inputs: 4, StartCycle: 21, Storage: 3},
		},
	}
	if rep := audit.CheckStreamCounts(good); !rep.Clean() {
		t.Fatalf("well-formed counts rejected: %v", rep.Err())
	}
	mutations := []struct {
		name   string
		mutate func(*audit.StreamCounts)
		want   audit.Code
	}{
		{"overlapping passes", func(c *audit.StreamCounts) { c.Passes[1].StartCycle = 5 }, audit.ScheduleOrder},
		{"wrong per-pass emits", func(c *audit.StreamCounts) { c.Passes[0].Emits = 6 }, audit.TargetCount},
		{"inflated waste total", func(c *audit.StreamCounts) { c.TotalWaste = 99 }, audit.MassConservation},
		{"inflated input total", func(c *audit.StreamCounts) { c.TotalInputs = 99 }, audit.MassConservation},
		{"short emission", func(c *audit.StreamCounts) { c.Emitted = 8; c.Passes[2].Emits = 0 }, audit.TargetCount},
		{"wrong cycle total", func(c *audit.StreamCounts) { c.TotalCycles = 7 }, audit.ScheduleOrder},
		{"short pass over storage", func(c *audit.StreamCounts) { c.Passes[2].Storage = 6 }, audit.StorageOccupancy},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			c := good
			c.Passes = append([]audit.PassCounts(nil), good.Passes...)
			m.mutate(&c)
			rep := audit.CheckStreamCounts(c)
			if rep.Clean() {
				t.Fatal("auditor passed corrupted counts")
			}
			found := false
			for _, v := range rep.Violations {
				if v.Code == m.want {
					found = true
				}
			}
			if !found {
				t.Fatalf("no %v violation in %v", m.want, rep)
			}
		})
	}
}
