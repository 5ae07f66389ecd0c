package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/errormodel"
	"repro/internal/protocols"
	"repro/internal/runtime"
)

// E13 — error-aware vs error-blind planning across fault magnitudes.
//
// The blind planner is the paper's: MM base graph picked for cycle count
// alone, executed against the hand-tuned CF tolerance 1/64. The aware
// planner scores the MM/RMA/MTCS candidates by their closed-form CF-error
// prediction under the chip's declared noise (errormodel.Analyze), picks
// the lowest expected error within the cycle budget, and derives the
// executor's CF tolerance from the winning plan's analytic worst case
// (runtime.DeriveFromModel). Both plans are then pushed through the same
// seeded Monte-Carlo model; the re-mix rate is the fraction of emitted
// targets each planner's own tolerance would send back for re-mixing.

// E13Row compares the two planners on one protocol at one noise level.
type E13Row struct {
	Key       string
	Imbalance float64 // split imbalance ι; dispense error is ι/2
	Blind     E13Side
	Aware     E13Side
}

// E13Side is one planner's outcome within a row.
type E13Side struct {
	Algorithm string
	Cycles    int
	MeanErr   float64
	P95Err    float64
	Tolerance float64 // CF tolerance its executor would run with
	RemixRate float64 // fraction of targets beyond that tolerance
}

// E13Config parameterizes the sweep.
type E13Config struct {
	Imbalances []float64 // split-imbalance magnitudes ι to sweep
	Demand     int
	CycleSlack float64 // cycle budget the aware planner may trade
	Trials     int     // Monte-Carlo trials per cell
	Seed       int64
}

// DefaultE13Config is the committed sweep: the acceptance point is ι=0.05.
func DefaultE13Config() E13Config {
	return E13Config{
		Imbalances: []float64{0, 0.02, 0.05, 0.08},
		Demand:     16,
		CycleSlack: 0.25,
		Trials:     400,
		Seed:       9,
	}
}

// E13ErrorAwareSweep runs the sweep over the Table 2 protocols.
func E13ErrorAwareSweep(cfg E13Config) ([]E13Row, error) {
	var rows []E13Row
	for _, p := range protocols.Table2() {
		for _, imb := range cfg.Imbalances {
			noise := errormodel.Params{SplitImbalance: imb, DispenseError: imb / 2}
			row := E13Row{Key: p.Key, Imbalance: imb}

			blindEng, err := core.New(core.Config{Target: p.Ratio})
			if err != nil {
				return nil, err
			}
			row.Blind, err = e13Side(blindEng, cfg, noise, false)
			if err != nil {
				return nil, fmt.Errorf("E13 %s ι=%g blind: %w", p.Key, imb, err)
			}

			awareEng, err := core.New(core.Config{
				Target:      p.Ratio,
				ErrorPolicy: &errormodel.Policy{Params: noise, CycleSlack: cfg.CycleSlack},
			})
			if err != nil {
				return nil, err
			}
			row.Aware, err = e13Side(awareEng, cfg, noise, true)
			if err != nil {
				return nil, fmt.Errorf("E13 %s ι=%g aware: %w", p.Key, imb, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// e13Side plans one side, simulates its forest under the noise model and
// scores it against the tolerance its executor would actually run with.
func e13Side(eng *core.Engine, cfg E13Config, noise errormodel.Params, aware bool) (E13Side, error) {
	b, err := eng.Request(cfg.Demand)
	if err != nil {
		return E13Side{}, err
	}
	side := E13Side{Algorithm: "MM", Cycles: b.Result.TotalCycles, Tolerance: 1.0 / 64}
	if sel := b.Result.Selection; sel != nil {
		side.Algorithm = sel.Algorithm
	}
	f := b.Result.Passes[0].Plan.Forest()
	if aware {
		an, err := errormodel.Analyze(f, noise)
		if err != nil {
			return E13Side{}, err
		}
		pol, err := runtime.DeriveFromModel(noise, an)
		if err != nil {
			return E13Side{}, err
		}
		side.Tolerance = pol.CFTolerance
	}
	mc := noise
	mc.Trials = cfg.Trials
	mc.Seed = cfg.Seed
	mc.KeepErrors = true
	rep, err := errormodel.Simulate(f, mc)
	if err != nil {
		return E13Side{}, err
	}
	side.MeanErr = rep.MeanErr
	side.P95Err = rep.P95Err
	side.RemixRate = rep.ExceedRate(side.Tolerance)
	return side, nil
}

// FormatE13 renders the sweep.
func FormatE13(rows []E13Row, cfg E13Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E13: error-aware vs error-blind planning (D=%d, slack %.0f%%, %d trials; δ=ι/2)\n",
		cfg.Demand, 100*cfg.CycleSlack, cfg.Trials)
	fmt.Fprintf(&b, "%-6s %5s | %-5s %5s %9s %8s | %-5s %5s %9s %8s\n",
		"Ratio", "ι", "blind", "Tc", "mean err", "remix", "aware", "Tc", "mean err", "remix")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %5.2f | %-5s %5d %9.5f %7.1f%% | %-5s %5d %9.5f %7.1f%%\n",
			r.Key, r.Imbalance,
			r.Blind.Algorithm, r.Blind.Cycles, r.Blind.MeanErr, 100*r.Blind.RemixRate,
			r.Aware.Algorithm, r.Aware.Cycles, r.Aware.MeanErr, 100*r.Aware.RemixRate)
	}
	return b.String()
}

// CSVE13 renders the sweep as CSV.
func CSVE13(rows []E13Row) string {
	var b strings.Builder
	b.WriteString("protocol,imbalance,planner,algorithm,tc,mean_err,p95_err,tolerance,remix_rate\n")
	for _, r := range rows {
		for _, s := range []struct {
			name string
			side E13Side
		}{{"blind", r.Blind}, {"aware", r.Aware}} {
			fmt.Fprintf(&b, "%s,%g,%s,%s,%d,%.6f,%.6f,%.6f,%.4f\n",
				r.Key, r.Imbalance, s.name, s.side.Algorithm, s.side.Cycles,
				s.side.MeanErr, s.side.P95Err, s.side.Tolerance, s.side.RemixRate)
		}
	}
	return b.String()
}
