// Package experiments regenerates every table and figure of the evaluation
// section (§6) of Roy et al., DAC 2014: Table 2 (per-protocol comparison of
// nine schemes), Table 3 (average improvements over the synthetic ratio
// population), Table 4 (storage-constrained multi-pass streaming), Fig. 5
// (chip-level electrode-actuation comparison), Fig. 6 (cost vs. demand) and
// Fig. 7 (cost vs. mixer count). EXPERIMENTS.md records paper-reported vs.
// measured values.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ratio"
	"repro/internal/stream"
)

// Scheme identifies one of the nine evaluated engine configurations.
type Scheme struct {
	// Name is the paper's label (e.g. "RMA+MMS", or "RMM" for a repeated
	// baseline).
	Name string
	// Algorithm is the base mixing algorithm.
	Algorithm core.Algorithm
	// Repeated marks the repeated-baseline engines (RMM, RRMA, RMTCS).
	Repeated bool
	// Scheduler applies to forest engines (MMS or SRS).
	Scheduler stream.Scheduler
}

// Schemes lists the paper's nine columns of Table 2, in order:
// A=RMM, B=MM+MMS, C=MM+SRS, D=RRMA, E=RMA+MMS, F=RMA+SRS, G=RMTCS,
// H=MTCS+MMS, I=MTCS+SRS.
func Schemes() []Scheme {
	return []Scheme{
		{Name: "RMM", Algorithm: core.MM, Repeated: true},
		{Name: "MM+MMS", Algorithm: core.MM, Scheduler: stream.MMS},
		{Name: "MM+SRS", Algorithm: core.MM, Scheduler: stream.SRS},
		{Name: "RRMA", Algorithm: core.RMA, Repeated: true},
		{Name: "RMA+MMS", Algorithm: core.RMA, Scheduler: stream.MMS},
		{Name: "RMA+SRS", Algorithm: core.RMA, Scheduler: stream.SRS},
		{Name: "RMTCS", Algorithm: core.MTCS, Repeated: true},
		{Name: "MTCS+MMS", Algorithm: core.MTCS, Scheduler: stream.MMS},
		{Name: "MTCS+SRS", Algorithm: core.MTCS, Scheduler: stream.SRS},
	}
}

// Result is one scheme's cost on one MDST instance.
type Result struct {
	// Tc is the time of completion in cycles (Tr for repeated baselines).
	Tc int
	// Q is the measured number of storage units.
	Q int
	// I is the total input-droplet usage; W the waste droplets.
	I int64
	W int64
}

// runScheme evaluates one scheme on (ratio, demand) with mc mixers; it is
// safe for concurrent use and is the fan-out unit of the parallel sweeps.
// Forest plans come from stream.BuildPlan, so every sweep plan passes the
// same audit as a served one. They bypass every plan cache: each
// (ratio, scheme, demand) of a sweep is visited exactly once, so memoising
// it can never hit, and retaining thousands of pointer-dense forests only
// inflates the GC mark phase (measured ~1.35x on BenchmarkTable3).
func runScheme(s Scheme, r ratio.Ratio, mc, demand int) (Result, error) {
	if s.Repeated {
		b, err := core.Baseline(s.Algorithm, r, mc, demand)
		if err != nil {
			return Result{}, err
		}
		return Result{Tc: b.Cycles, Q: b.Storage, I: b.Inputs, W: b.Waste}, nil
	}
	base, err := s.Algorithm.Build(r)
	if err != nil {
		return Result{}, err
	}
	p, err := stream.BuildPlan(stream.Config{Base: base, Mixers: mc, Scheduler: s.Scheduler}, demand)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Tc: p.Cycles,
		Q:  p.Storage,
		I:  p.Stats.InputTotal,
		W:  p.Stats.Waste,
	}, nil
}

// schemeByName resolves a scheme label.
func schemeByName(name string) (Scheme, error) {
	for _, s := range Schemes() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scheme{}, fmt.Errorf("experiments: unknown scheme %q", name)
}
