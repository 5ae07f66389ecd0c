package runtime

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chip"
	"repro/internal/errormodel"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/ratio"
	"repro/internal/sched"
	"repro/internal/stream"
)

const pcr = "2:1:1:1:1:1:9" // the paper's PCR master-mix at d=4

// pcrSchedule plans the PCR target at the given demand on `mixers` mixers and
// returns a layout provisioned with exactly the storage the schedule needs.
func pcrSchedule(t *testing.T, demand, mixers int, scheme string) (*sched.Schedule, *chip.Layout) {
	t.Helper()
	g, err := minmix.Build(ratio.MustParse(pcr))
	if err != nil {
		t.Fatal(err)
	}
	f, err := forest.Build(g, demand)
	if err != nil {
		t.Fatal(err)
	}
	var s *sched.Schedule
	if scheme == "MMS" {
		s, err = sched.MMS(f, mixers)
	} else {
		s, err = sched.SRS(f, mixers)
	}
	if err != nil {
		t.Fatal(err)
	}
	l, err := chip.AutoLayout(g.Target.N(), mixers, sched.StorageUnits(s)+4)
	if err != nil {
		t.Fatal(err)
	}
	return s, l
}

// TestZeroFaultGolden pins the acceptance criterion: the zero-fault runtime
// replay is byte-identical to the existing exec plan — same move list, same
// actuation count, zero recovery overhead.
func TestZeroFaultGolden(t *testing.T) {
	for _, scheme := range []string{"SRS", "MMS"} {
		t.Run(scheme, func(t *testing.T) {
			s, l := pcrSchedule(t, 20, 3, scheme)
			plan, err := exec.Execute(s, l)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(s, l, nil, Policy{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep.Moves, plan.Moves) {
				t.Fatal("zero-fault move log differs from the exec plan")
			}
			if rep.TotalActuations != plan.TotalCost {
				t.Errorf("actuations = %d, exec plan = %d", rep.TotalActuations, plan.TotalCost)
			}
			if rep.TotalCycles != s.Cycles {
				t.Errorf("cycles = %d, schedule = %d", rep.TotalCycles, s.Cycles)
			}
			if rep.ExtraCycles != 0 || rep.ExtraActuations != 0 || rep.ExtraDroplets != 0 {
				t.Errorf("zero-fault overhead: +%d cycles, +%d actuations, +%d droplets",
					rep.ExtraCycles, rep.ExtraActuations, rep.ExtraDroplets)
			}
			if rep.Injected != 0 || rep.Detected != 0 || rep.Retries != 0 || rep.Replays != 0 || rep.Degradations != 0 {
				t.Errorf("zero-fault recovery actions: %+v", rep)
			}
			if rep.Emitted != 20 {
				t.Errorf("emitted %d, want 20", rep.Emitted)
			}
			if rep.MaxCFError() != 0 {
				t.Errorf("zero-fault CF error = %g, want exactly 0", rep.MaxCFError())
			}
			for _, tr := range rep.Targets {
				if tr.Volume != 1.0 {
					t.Errorf("zero-fault target volume = %g, want exactly 1", tr.Volume)
				}
			}
		})
	}
}

// TestZeroFaultStreamGolden runs a storage-constrained multi-pass stream plan
// fault-free and checks the aggregate against the per-pass exec plans.
func TestZeroFaultStreamGolden(t *testing.T) {
	g, err := minmix.Build(ratio.MustParse(pcr))
	if err != nil {
		t.Fatal(err)
	}
	res, err := stream.Run(stream.Config{Base: g, Mixers: 3, Storage: 4, Scheduler: stream.SRS}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Passes) < 2 {
		t.Fatalf("expected a multi-pass plan, got %d passes", len(res.Passes))
	}
	l, err := chip.AutoLayout(g.Target.N(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunStream(res, l, nil, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	var wantMoves []exec.Move
	wantCost := 0
	for _, p := range res.Passes {
		plan, err := exec.Execute(p.Plan.Schedule(), l)
		if err != nil {
			t.Fatal(err)
		}
		wantMoves = append(wantMoves, plan.Moves...)
		wantCost += plan.TotalCost
	}
	if !reflect.DeepEqual(rep.Moves, wantMoves) {
		t.Fatal("zero-fault stream move log differs from the concatenated exec plans")
	}
	if rep.TotalActuations != wantCost || rep.ExtraActuations != 0 {
		t.Errorf("actuations = %d (+%d), want %d (+0)", rep.TotalActuations, rep.ExtraActuations, wantCost)
	}
	if rep.TotalCycles != res.TotalCycles || rep.ExtraCycles != 0 {
		t.Errorf("cycles = %d (+%d), want %d (+0)", rep.TotalCycles, rep.ExtraCycles, res.TotalCycles)
	}
	if rep.Emitted != res.Emitted {
		t.Errorf("emitted %d, want %d", rep.Emitted, res.Emitted)
	}
	if len(rep.Passes) != len(res.Passes) {
		t.Errorf("pass reports = %d, want %d", len(rep.Passes), len(res.Passes))
	}
}

// TestFaultSweepNeverSilentlyCorrupts is the core robustness guarantee: under
// probabilistic fault rates up to 5%, every run either completes with all
// emitted droplets inside the sensor tolerance, or returns a typed error
// wrapping ErrUnrecoverable — never a silent corrupted emission.
func TestFaultSweepNeverSilentlyCorrupts(t *testing.T) {
	s, l := pcrSchedule(t, 20, 3, "SRS")
	pol := Policy{}.withDefaults()
	recoveredRuns := 0
	for _, rate := range []float64{0.01, 0.05} {
		for seed := int64(1); seed <= 8; seed++ {
			inj, err := faults.New(faults.Rate(seed, rate))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(s, l, inj, Policy{})
			if rep == nil {
				t.Fatalf("rate %g seed %d: nil report", rate, seed)
			}
			if err != nil {
				if !errors.Is(err, ErrUnrecoverable) {
					t.Errorf("rate %g seed %d: untyped failure %v", rate, seed, err)
				}
				continue
			}
			if rep.Emitted != 20 {
				t.Errorf("rate %g seed %d: emitted %d of 20", rate, seed, rep.Emitted)
			}
			if got := rep.MaxCFError(); got > pol.CFTolerance {
				t.Errorf("rate %g seed %d: CF error %g beyond tolerance %g", rate, seed, got, pol.CFTolerance)
			}
			for _, tr := range rep.Targets {
				if d := tr.Volume - 1; d > pol.SensorThreshold || d < -pol.SensorThreshold {
					t.Errorf("rate %g seed %d: target volume %g outside ±%g", rate, seed, tr.Volume, pol.SensorThreshold)
				}
			}
			if rep.Recovered != rep.Detected {
				t.Errorf("rate %g seed %d: recovered %d of %d detected", rate, seed, rep.Recovered, rep.Detected)
			}
			if rep.Detected > 0 {
				recoveredRuns++
				if rep.ExtraCycles <= 0 && rep.Retries+rep.Replays > 0 {
					t.Errorf("rate %g seed %d: recovery actions with no extra cycles", rate, seed)
				}
			}
		}
	}
	if recoveredRuns == 0 {
		t.Error("no run exercised the recovery path; fault rates too low for the sweep to mean anything")
	}
}

// TestSameSeedSameRun pins end-to-end determinism: identical seeds replay
// identical faults and identical recoveries.
func TestSameSeedSameRun(t *testing.T) {
	s, l := pcrSchedule(t, 20, 3, "SRS")
	run := func() (*Report, error) {
		inj, err := faults.New(faults.Rate(5, 0.05))
		if err != nil {
			t.Fatal(err)
		}
		return Run(s, l, inj, Policy{})
	}
	r1, err1 := run()
	r2, err2 := run()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("outcomes differ: %v vs %v", err1, err2)
	}
	if !reflect.DeepEqual(r1.Moves, r2.Moves) || !reflect.DeepEqual(r1.Events, r2.Events) {
		t.Error("identical seeds produced different runs")
	}
	if r1.TotalCycles != r2.TotalCycles || r1.TotalDroplets != r2.TotalDroplets {
		t.Error("identical seeds produced different cost ledgers")
	}
}

// TestDeadMixerDegradation scripts a mixer death mid-run and expects the
// executor to drop it from the roster, replan on the survivors and still
// deliver the full demand.
func TestDeadMixerDegradation(t *testing.T) {
	s, l := pcrSchedule(t, 20, 3, "SRS")
	inj, err := faults.New(faults.Params{DeadMixers: map[string]int{"M3": 2}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(s, l, inj, Policy{})
	if err != nil {
		t.Fatalf("degradation did not recover: %v\n%s", err, rep)
	}
	if rep.Degradations < 1 {
		t.Error("no degradation recorded")
	}
	found := false
	for _, m := range rep.DeadMixers {
		if m == "M3" {
			found = true
		}
	}
	if !found {
		t.Errorf("dead mixers = %v, want M3", rep.DeadMixers)
	}
	if rep.Emitted < 20 {
		t.Errorf("emitted %d, want >= 20", rep.Emitted)
	}
	if rep.ByKind[faults.DeadMixer] < 1 {
		t.Errorf("fault log missed the mixer death: %v", rep.ByKind)
	}
	pol := Policy{}.withDefaults()
	if got := rep.MaxCFError(); got > pol.CFTolerance {
		t.Errorf("CF error %g beyond tolerance after degradation", got)
	}
	if !strings.Contains(rep.String(), "dead mixers: M3") {
		t.Errorf("report summary missing dead mixer: %q", rep.String())
	}
}

// TestDegradedReplanStreamsInChunks kills a mixer on the storage-tight PCR
// floorplan: the remaining demand's single-pass schedule no longer fits the
// 5 storage cells on 2 mixers, so the replan must fall back to smaller
// passes — and still deliver everything.
func TestDegradedReplanStreamsInChunks(t *testing.T) {
	g, err := minmix.Build(ratio.MustParse(pcr))
	if err != nil {
		t.Fatal(err)
	}
	f, err := forest.Build(g, 20)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.SRS(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	l := chip.PCRLayout() // 5 storage cells: too few for one-pass D=18 on 2 mixers
	inj, err := faults.New(faults.Params{DeadMixers: map[string]int{"M3": 2}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(s, l, inj, Policy{})
	if err != nil {
		t.Fatalf("chunked degraded replan failed: %v\n%s", err, rep)
	}
	if rep.Emitted < 20 {
		t.Errorf("emitted %d of 20", rep.Emitted)
	}
	if rep.Degradations < 1 || len(rep.DeadMixers) == 0 {
		t.Errorf("no degradation recorded: %s", rep)
	}
	pol := Policy{}.withDefaults()
	if got := rep.MaxCFError(); got > pol.CFTolerance {
		t.Errorf("CF error %g beyond tolerance after chunked replan", got)
	}
}

// TestStuckElectrodeReroute blocks a routing-channel electrode and expects
// the run to reroute around it (never cheaper than the pristine plan) and
// still complete.
func TestStuckElectrodeReroute(t *testing.T) {
	s, l := pcrSchedule(t, 20, 3, "SRS")
	inj, err := faults.New(faults.Params{StuckCells: []chip.Point{{X: 6, Y: 6}}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(s, l, inj, Policy{})
	if err != nil {
		t.Fatalf("stuck electrode not recovered: %v", err)
	}
	if rep.ByKind[faults.StuckElectrode] != 1 {
		t.Errorf("stuck-electrode events = %d, want 1", rep.ByKind[faults.StuckElectrode])
	}
	if rep.Emitted < 20 {
		t.Errorf("emitted %d, want >= 20", rep.Emitted)
	}
	if rep.TotalActuations < rep.BaseActuations {
		t.Errorf("rerouted run cheaper than pristine plan: %d < %d", rep.TotalActuations, rep.BaseActuations)
	}
}

// TestAllMixersDeadIsTyped kills the whole roster and expects the typed
// dead-end, not a hang or a panic.
func TestAllMixersDeadIsTyped(t *testing.T) {
	s, l := pcrSchedule(t, 8, 3, "SRS")
	inj, err := faults.New(faults.Params{DeadMixers: map[string]int{"M1": 1, "M2": 1, "M3": 1}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(s, l, inj, Policy{})
	if !errors.Is(err, ErrNoMixersLeft) || !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrNoMixersLeft wrapping ErrUnrecoverable", err)
	}
	if rep == nil || len(rep.DeadMixers) == 0 {
		t.Error("failure report missing the post-mortem")
	}
}

// TestRetriesExhaustedIsTyped drives the dispense failure rate high enough
// that the bounded retry loop must give up.
func TestRetriesExhaustedIsTyped(t *testing.T) {
	s, l := pcrSchedule(t, 8, 3, "SRS")
	inj, err := faults.New(faults.Params{Seed: 1, DispenseFailRate: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(s, l, inj, Policy{})
	if !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrRetriesExhausted wrapping ErrUnrecoverable", err)
	}
	if rep.Detected == 0 {
		t.Error("failure report shows no detected faults")
	}
}

// TestRecoveryBudgetIsTyped bounds the recovery budget to one extra cycle and
// floods the run with split faults: the second recovery cycle must trip the
// typed budget error.
func TestRecoveryBudgetIsTyped(t *testing.T) {
	s, l := pcrSchedule(t, 20, 3, "SRS")
	inj, err := faults.New(faults.Params{Seed: 2, SplitFailRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(s, l, inj, Policy{RecoveryBudget: 1})
	if !errors.Is(err, ErrRecoveryBudget) || !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrRecoveryBudget wrapping ErrUnrecoverable", err)
	}
}

// TestRunStreamWithFaults exercises the multi-pass path under moderate fault
// rates with the same never-silent guarantee.
func TestRunStreamWithFaults(t *testing.T) {
	g, err := minmix.Build(ratio.MustParse(pcr))
	if err != nil {
		t.Fatal(err)
	}
	res, err := stream.Run(stream.Config{Base: g, Mixers: 3, Storage: 4, Scheduler: stream.SRS}, 20)
	if err != nil {
		t.Fatal(err)
	}
	l, err := chip.AutoLayout(g.Target.N(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	pol := Policy{}.withDefaults()
	for seed := int64(1); seed <= 4; seed++ {
		inj, err := faults.New(faults.Rate(seed, 0.02))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunStream(res, l, inj, Policy{})
		if err != nil {
			if !errors.Is(err, ErrUnrecoverable) {
				t.Errorf("seed %d: untyped failure %v", seed, err)
			}
			continue
		}
		if rep.Emitted < res.Demand {
			t.Errorf("seed %d: emitted %d of %d", seed, rep.Emitted, res.Demand)
		}
		if got := rep.MaxCFError(); got > pol.CFTolerance {
			t.Errorf("seed %d: CF error %g beyond tolerance", seed, got)
		}
		if len(rep.Passes) != len(res.Passes) {
			t.Errorf("seed %d: %d pass reports, want %d", seed, len(rep.Passes), len(res.Passes))
		}
	}
}

// TestPolicyFingerprint pins the plan-cache policy key: distinct recovery
// policies must not share a fingerprint, and the pristine fingerprint is
// reserved.
func TestPolicyFingerprint(t *testing.T) {
	a := Policy{}.Fingerprint()
	b := Policy{SensorThreshold: 0.1}.Fingerprint()
	if a == b {
		t.Error("distinct policies share a fingerprint")
	}
	if a == "" || b == "" {
		t.Error("recovery fingerprint collides with the pristine policy key")
	}
	if (Policy{}).Fingerprint() != a {
		t.Error("fingerprint not stable")
	}
}

// TestReportString smoke-checks the human summary.
func TestReportString(t *testing.T) {
	r := &Report{Injected: 2, Detected: 2, Recovered: 2, Retries: 1, TotalCycles: 10,
		Targets: []TargetReading{{Cycle: 5, Volume: 1, CFError: 0.01}}}
	s := r.String()
	if !strings.Contains(s, "2 faults injected") || !strings.Contains(s, "0.0100") {
		t.Errorf("summary = %q", s)
	}
}

// TestErrormodelPrimitives sanity-checks the exported sensor physics the
// runtime builds on.
func TestErrormodelPrimitives(t *testing.T) {
	a := errormodel.Fresh(0, 2, 0)
	b := errormodel.Fresh(1, 2, 0)
	m := errormodel.Mix(a, b)
	if m.Volume != 2 || m.CF[0] != 0.5 || m.CF[1] != 0.5 {
		t.Errorf("Mix = %+v", m)
	}
	hi, lo := errormodel.Split(m, 0.1)
	if hi.Volume <= lo.Volume {
		t.Errorf("Split order: hi %g, lo %g", hi.Volume, lo.Volume)
	}
	if hi.CF[0] != m.CF[0] || lo.CF[0] != m.CF[0] {
		t.Error("split changed CF")
	}
	if e := hi.LinfError([]float64{0.5, 0.5}); e != 0 {
		t.Errorf("LinfError = %g", e)
	}
}

// TestCutOffMixers pins which mixers a degraded chip loses to stuck cells: a
// mixer is cut off when its port is stuck or unreachable from the output
// port, and a blocked output port cuts nothing (the output's own failure is
// reported elsewhere, not as a roster drop).
func TestCutOffMixers(t *testing.T) {
	l := chip.PCRLayout()
	port := func(name string) chip.Point {
		m, ok := l.Module(name)
		if !ok {
			t.Fatalf("PCR layout has no %s", name)
		}
		return m.Port
	}
	m1 := port("M1")
	for _, tc := range []struct {
		name  string
		stuck []chip.Point
		want  []string
	}{
		{"clear layout", nil, nil},
		// The module block covers the rest of the port's neighbourhood.
		{"walled-in mixer port", []chip.Point{
			{X: m1.X - 1, Y: m1.Y}, {X: m1.X + 1, Y: m1.Y},
			{X: m1.X, Y: m1.Y - 1}, {X: m1.X, Y: m1.Y + 1},
		}, []string{"M1"}},
		{"stuck mixer port", []chip.Point{port("M2")}, []string{"M2"}},
		{"blocked output port", []chip.Point{port("OUT")}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := cutOffMixers(l.Degrade(nil, tc.stuck)); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("cutOffMixers = %v, want %v", got, tc.want)
			}
		})
	}
}
