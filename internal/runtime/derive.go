package runtime

import (
	"fmt"
	"math"

	"repro/internal/errormodel"
)

// Derivation floors. A derived threshold must never be zero (the zero value
// means "use the hand-tuned default" everywhere a Policy travels), and
// float dust from the closed-form propagation must never trip a sensor on a
// healthy chip, so both tolerances are floored well above rounding noise
// yet well below any physically meaningful signal.
const (
	minSensorThreshold = 0.005
	minCFTolerance     = 1e-6
)

// DeriveFromModel constructs the executor's sensing and recovery policy
// from the chip's physical noise model instead of hand-tuned constants. The
// split/volume sensor accepts exactly the imbalance the model declares
// legitimate, and — when the caller supplies the closed-form analysis of
// the plan about to run (errormodel.Analyze, or errormodel.AnalyzeGraph of
// its base graph with Mixes set from the plan) — the CF tolerance becomes
// the plan's analytic worst-case bound: a healthy chip can never exceed it,
// so anything past it is a real fault, and the sensor neither cries wolf on
// benign volumetric drift (over-triggering replays) nor waves through
// corrupted targets (under-triggering). The recovery budget likewise scales
// with how much recovery work the noise magnitudes make likely on a plan of
// Mixes tasks. A nil analysis derives the sensing thresholds from the raw
// parameters alone and leaves CF tolerance and budget at their defaults.
func DeriveFromModel(p errormodel.Params, an *errormodel.Analysis) (Policy, error) {
	if p.SplitImbalance < 0 || p.SplitImbalance >= 0.5 ||
		p.DispenseError < 0 || p.DispenseError >= 0.5 {
		return Policy{}, fmt.Errorf("runtime: derive policy: %w", errormodel.ErrBadParams)
	}
	pol := Policy{SensorThreshold: math.Max(p.SplitImbalance, minSensorThreshold)}
	if an == nil {
		return pol, nil
	}
	// Emitted-droplet volume drift accumulates across the whole task chain,
	// so the emit-side tolerance must cover the analysis' volume envelope,
	// not just one split's imbalance.
	pol.SensorThreshold = math.Max(pol.SensorThreshold, an.VolDev)
	pol.CFTolerance = math.Max(an.WorstTarget, minCFTolerance)
	// Budget heuristic, anchored on the fault-sweep experiment (E6): ~5%
	// faulty operations on the 31-task PCR plan cost ≈14 extra recovery
	// cycles, i.e. a handful of cycles per expected faulty task. The
	// noise magnitudes proxy the fault likelihood per task; the constant
	// floor keeps small plans from strangling their own level-1 retries.
	pol.RecoveryBudget = 16 + int(math.Ceil(8*(p.SplitImbalance+p.DispenseError)*float64(an.Mixes)))
	return pol, nil
}
