package server

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/errormodel"
	"repro/internal/ratio"
	"repro/internal/stream"
)

// PlanRequest is the JSON body of POST /v1/plan and POST /v1/stream (and is
// embedded in ExecuteRequest). The zero values of the optional fields select
// the paper's defaults: MM base algorithm, MMS scheduler, Mlb mixers,
// unlimited storage.
type PlanRequest struct {
	// Ratio is the target mixture in colon form, e.g. "2:1:1:1:1:1:9".
	Ratio string `json:"ratio"`
	// Demand is the number of target droplets D (> 0).
	Demand int `json:"demand"`
	// Mixers is the on-chip mixer count Mc; 0 uses Mlb of the MM tree.
	Mixers int `json:"mixers,omitempty"`
	// Storage is the on-chip storage budget q'; 0 means unlimited.
	Storage int `json:"storage,omitempty"`
	// Algorithm picks the base mixing-tree builder: MM, RMA, MTCS or RSM.
	Algorithm string `json:"algorithm,omitempty"`
	// Scheduler picks the forest scheduler: MMS or SRS.
	Scheduler string `json:"scheduler,omitempty"`
	// Session, when non-empty, routes the request to a named long-lived
	// engine: successive requests extend one droplet timeline instead of
	// planning from cycle 1. Sessions pin their configuration; a later
	// request with a different config is rejected (409).
	Session string `json:"session,omitempty"`
	// TimeoutMS bounds this request's planning time; it is clamped to the
	// server's max timeout. 0 uses the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// ErrorAware asks the planner to select the base graph (MM vs RMA vs
	// MTCS) by predicted CF error under the chip's noise model instead of
	// honouring Algorithm — the two are mutually exclusive. The selection
	// runs per request, so each batch of an error-aware session may plan on
	// a different base graph; the session pins the policy (noise magnitudes
	// and cycle slack), and its journal, recovery and migration replay the
	// same choices.
	ErrorAware bool `json:"error_aware,omitempty"`
	// SplitImbalance and DispenseError are the chip's physical noise
	// magnitudes (relative, e.g. 0.05 for ±5%). They drive error-aware
	// selection and, on /v1/execute, the model-derived sensor thresholds.
	// Zero falls back to the server's configured noise model.
	SplitImbalance float64 `json:"split_imbalance,omitempty"`
	DispenseError  float64 `json:"dispense_error,omitempty"`
	// CycleSlack is the fraction of extra schedule cycles an error-aware
	// selection may trade for a lower predicted error (0 keeps the plan
	// cycle-optimal).
	CycleSlack float64 `json:"cycle_slack,omitempty"`
}

// plan and check make a PlanRequest the planBody of /v1/plan and /v1/stream;
// the requests embedding it inherit plan.
func (r *PlanRequest) plan() *PlanRequest { return r }
func (r *PlanRequest) check() error       { return nil }

// ExecuteRequest is the JSON body of POST /v1/execute: a plan request plus
// cyberphysical execution knobs.
type ExecuteRequest struct {
	PlanRequest
	// FaultRate is the per-event fault-injection probability (0 disables
	// injection; the run still executes cycle-by-cycle).
	FaultRate float64 `json:"fault_rate,omitempty"`
	// Seed seeds the deterministic fault injector (default 1).
	Seed int64 `json:"seed,omitempty"`
	// RecoveryBudget bounds per-pass recovery cycles (0 = unbounded).
	RecoveryBudget int `json:"recovery_budget,omitempty"`
}

// PassSummary is one planned pass in a response.
type PassSummary struct {
	Demand     int `json:"demand"`
	Cycles     int `json:"cycles"`
	Storage    int `json:"storage"`
	StartCycle int `json:"start_cycle"`
}

// EmissionPoint is one droplet-output event of a stream plan.
type EmissionPoint struct {
	Cycle int `json:"cycle"`
	Count int `json:"count"`
}

// PlanResponse is the JSON body answering /v1/plan.
type PlanResponse struct {
	Ratio         string        `json:"ratio"`
	Algorithm     string        `json:"algorithm"`
	Scheduler     string        `json:"scheduler"`
	Mixers        int           `json:"mixers"`
	Storage       int           `json:"storage,omitempty"`
	Demand        int           `json:"demand"`
	Emitted       int           `json:"emitted"`
	Passes        []PassSummary `json:"passes"`
	TotalCycles   int           `json:"total_cycles"`
	TotalInputs   int64         `json:"total_inputs"`
	TotalWaste    int64         `json:"total_waste"`
	FirstEmission int           `json:"first_emission"`
	// Session/StartCycle are set on session-routed requests: StartCycle is
	// where this batch lands on the session's droplet timeline.
	Session    string `json:"session,omitempty"`
	StartCycle int    `json:"start_cycle,omitempty"`
	// SessionOwner names the cluster node the session key hashes to when it
	// is not this node — a routing hint for fleet-aware clients (the request
	// was still served locally; session timelines are per-node).
	SessionOwner string `json:"session_owner,omitempty"`
	// Coalesced marks a response served from another identical request
	// that was already in flight.
	Coalesced bool `json:"coalesced,omitempty"`
	// ErrorAware echoes an error-aware request; Algorithm then names the
	// base graph the selection chose, and the Predicted* fields carry the
	// plan's closed-form CF-error bound and expected magnitude over the
	// emitted targets.
	ErrorAware           bool    `json:"error_aware,omitempty"`
	PredictedWorstErr    float64 `json:"predicted_worst_err,omitempty"`
	PredictedExpectedErr float64 `json:"predicted_expected_err,omitempty"`
}

// StreamResponse is the JSON body answering /v1/stream: the plan summary
// plus the cycle-by-cycle emission timeline and the largest demand a single
// pass can carry under the storage budget.
type StreamResponse struct {
	PlanResponse
	Emissions           []EmissionPoint `json:"emissions"`
	MaxSinglePassDemand int             `json:"max_single_pass_demand"`
}

// ExecuteResponse is the JSON body answering /v1/execute.
type ExecuteResponse struct {
	PlanResponse
	Injected     int     `json:"injected"`
	Detected     int     `json:"detected"`
	Recovered    int     `json:"recovered"`
	Retries      int     `json:"retries"`
	Replays      int     `json:"replays"`
	Degradations int     `json:"degradations"`
	RunCycles    int     `json:"run_cycles"`
	ExtraCycles  int     `json:"extra_cycles"`
	Actuations   int     `json:"actuations"`
	RunEmitted   int     `json:"run_emitted"`
	MaxCFError   float64 `json:"max_cf_error"`
}

// errorResponse is the uniform JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// planSpec is a validated, normalized PlanRequest.
type planSpec struct {
	fp        string // see fingerprint
	target    ratio.Ratio
	algorithm core.Algorithm
	scheduler stream.Scheduler
	mixers    int
	storage   int
	demand    int
	// errPolicy is non-nil for error-aware requests.
	errPolicy *errormodel.Policy
}

// parsePlanRequest validates a PlanRequest into a planSpec; every error is a
// client error (HTTP 400).
func parsePlanRequest(req *PlanRequest) (*planSpec, error) {
	if strings.TrimSpace(req.Ratio) == "" {
		return nil, fmt.Errorf("missing ratio")
	}
	target, err := ratio.Parse(req.Ratio)
	if err != nil {
		return nil, err
	}
	if target.N() < 2 {
		return nil, fmt.Errorf("ratio %s needs no mixing: name at least two fluids", target)
	}
	if req.Demand <= 0 {
		return nil, fmt.Errorf("demand must be positive, got %d", req.Demand)
	}
	if req.Mixers < 0 || req.Storage < 0 {
		return nil, fmt.Errorf("mixers and storage must be non-negative")
	}
	alg := core.MM
	if req.Algorithm != "" {
		if alg, err = core.ParseAlgorithm(req.Algorithm); err != nil {
			return nil, err
		}
	}
	sch := stream.MMS
	if req.Scheduler != "" {
		if sch, err = stream.ParseScheduler(req.Scheduler); err != nil {
			return nil, fmt.Errorf("unknown scheduler %q (want MMS or SRS)", req.Scheduler)
		}
	}
	pol := errormodel.Policy{
		Params:     errormodel.Params{SplitImbalance: req.SplitImbalance, DispenseError: req.DispenseError},
		CycleSlack: req.CycleSlack,
	}
	if err := pol.Validate(); err != nil {
		return nil, fmt.Errorf("split_imbalance and dispense_error must be in [0, 0.5) and cycle_slack non-negative: %w", err)
	}
	spec := &planSpec{
		target:    target,
		algorithm: alg,
		scheduler: sch,
		mixers:    req.Mixers,
		storage:   req.Storage,
		demand:    req.Demand,
	}
	if req.ErrorAware {
		if req.Algorithm != "" {
			return nil, fmt.Errorf("error_aware selects the base algorithm; leave algorithm unset")
		}
		p := pol // copied here, so only error-aware requests allocate a policy
		spec.errPolicy = &p
	}
	b := make([]byte, 0, 64)
	for _, f := range [...]string{target.String(), alg.String(), sch.String()} {
		b = append(append(b, f...), '|')
	}
	b = strconv.AppendInt(append(b, 'm'), int64(spec.mixers), 10)
	b = strconv.AppendInt(append(b, "|q"...), int64(spec.storage), 10)
	if p := spec.errPolicy; p != nil {
		b = strconv.AppendFloat(append(b, "|ea:i"...), p.Params.SplitImbalance, 'g', -1, 64)
		b = strconv.AppendFloat(append(b, ",d"...), p.Params.DispenseError, 'g', -1, 64)
		b = strconv.AppendFloat(append(b, ",s"...), p.CycleSlack, 'g', -1, 64)
	}
	spec.fp = string(b)
	return spec, nil
}

// fingerprint canonicalizes a spec for session pinning, in-flight
// coalescing and plan-key journaling: two requests with the same
// fingerprint are the same plan. parsePlanRequest renders it once, as
// "ratio|algorithm|scheduler|m<mixers>|q<storage>"; error-aware specs
// append "|ea:i<split>,d<dispense>,s<slack>" (shortest %g floats) so plans
// selected under different noise models never coalesce. Session-open
// records log it, so its bytes never change.
func (s *planSpec) fingerprint() string { return s.fp }

// specKey is a spec at one demand. As planKeyOf it dedupes journaled
// stateless plans, live and recovered alike; as flightKey it also names
// the endpoint, so coalescing never crosses endpoints or demands.
type specKey struct {
	endpoint string
	spec     string // fingerprint
	demand   int
}

func planKeyOf(spec *planSpec) specKey { return specKey{spec: spec.fp, demand: spec.demand} }

func (s *planSpec) flightKey(endpoint string) specKey { return specKey{endpoint, s.fp, s.demand} }

// planResponse summarizes a planned batch as a /v1/plan response.
// Error-aware plans report the selected base algorithm and the analytic
// error prediction of the plan actually returned.
func planResponse(spec *planSpec, eng *core.Engine, b *core.Batch) PlanResponse {
	res := b.Result
	algorithm := spec.algorithm.String()
	if res.Selection != nil {
		algorithm = res.Selection.Algorithm
	}
	resp := PlanResponse{
		Ratio:         spec.target.String(),
		Algorithm:     algorithm,
		Scheduler:     spec.scheduler.String(),
		Mixers:        eng.Mixers(),
		Storage:       spec.storage,
		Demand:        res.Demand,
		Emitted:       res.Emitted,
		TotalCycles:   res.TotalCycles,
		TotalInputs:   res.TotalInputs,
		TotalWaste:    res.TotalWaste,
		FirstEmission: res.FirstEmission(),
		StartCycle:    b.StartCycle,
	}
	if res.Selection != nil {
		resp.ErrorAware = true
		resp.PredictedWorstErr = res.Selection.Predicted.Worst
		resp.PredictedExpectedErr = res.Selection.Predicted.Expected
	}
	for _, p := range res.Passes {
		resp.Passes = append(resp.Passes, PassSummary{
			Demand:     p.Demand,
			Cycles:     p.Plan.Cycles,
			Storage:    p.Storage,
			StartCycle: p.StartCycle,
		})
	}
	return resp
}
