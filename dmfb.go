// Package dmfb is a library for demand-driven mixture preparation and
// droplet streaming on digital microfluidic (DMF) biochips, reproducing
// Roy, Kumar, Chakrabarti, Bhattacharya and Chakrabarty, "Demand-Driven
// Mixture Preparation and Droplet Streaming using Digital Microfluidic
// Biochips", DAC 2014.
//
// The library solves the MDST problem (Multiple Droplets of a Single
// Target): emit a stream of D > 2 droplets of a mixture of N fluids in a
// target ratio a1:...:aN (ratio-sum 2^d) using only (1:1) mix-split
// operations, with far fewer mix steps and input droplets than re-running a
// classic mixing tree ⌈D/2⌉ times. The key data structure is the mixing
// forest, which recycles the waste droplets of a base mixing tree (built by
// MM, RMA or MTCS) into further target droplets.
//
// Typical use:
//
//	target := dmfb.MustParseRatio("2:1:1:1:1:1:9") // PCR master-mix, d=4
//	engine, err := dmfb.NewEngine(dmfb.Config{
//		Target:    target,
//		Algorithm: dmfb.MM,
//		Scheduler: dmfb.SRS,
//		Storage:   5,
//	})
//	batch, err := engine.Request(20) // plan 20 target droplets
//	fmt.Println(batch.Result.TotalCycles) // 11 cycles on 3 mixers
//
// Lower-level entry points expose each stage: BuildGraph (base mixing
// trees), BuildForest (the mixing forest), ScheduleMMS / ScheduleSRS /
// ScheduleOMS (mixer/time assignment), StorageUnits and Gantt (Algorithm 3
// and Fig. 4), Stream (storage-constrained multi-pass planning), and the
// chip layer (PCRLayout, Execute) for electrode-actuation accounting.
package dmfb

import (
	"context"

	"repro/internal/assay"
	"repro/internal/audit"
	"repro/internal/cancel"
	"repro/internal/chip"
	"repro/internal/contam"
	"repro/internal/core"
	"repro/internal/dilution"
	"repro/internal/errormodel"
	"repro/internal/exec"
	"repro/internal/export"
	"repro/internal/faults"
	"repro/internal/fluidsim"
	"repro/internal/forest"
	"repro/internal/mixgraph"
	"repro/internal/motion"
	"repro/internal/obs"
	"repro/internal/pins"
	"repro/internal/plancache"
	"repro/internal/protocols"
	"repro/internal/ratio"
	"repro/internal/route"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/stream"
	"repro/internal/svg"
)

// Ratio is an integer target mixture ratio with power-of-two ratio-sum.
type Ratio = ratio.Ratio

// Ratio constructors.
var (
	// NewRatio builds a ratio from integer parts (sum must be 2^d).
	NewRatio = ratio.New
	// ParseRatio reads the colon form "2:1:1:1:1:1:9".
	ParseRatio = ratio.Parse
	// MustParseRatio is ParseRatio for known-good literals.
	MustParseRatio = ratio.MustParse
	// RatioFromPercent approximates a percentage composition at accuracy
	// level d, keeping every fluid present.
	RatioFromPercent = ratio.FromPercent
)

// Algorithm selects the base mixing-graph builder.
type Algorithm = core.Algorithm

// Base mixing algorithms.
const (
	// MM is MinMix (Thies et al. 2008).
	MM = core.MM
	// RMA is the layout-aware builder of Roy et al. 2011 (reconstruction).
	RMA = core.RMA
	// MTCS is the reagent-saving builder of Kumar et al. 2013
	// (reconstruction).
	MTCS = core.MTCS
	// RSM is the reagent-saving builder of Hsieh et al. 2012
	// (reconstruction); named in the paper's Table 1 but outside its
	// benchmarked trio.
	RSM = core.RSM
)

// ParseAlgorithm resolves "MM", "RMA" or "MTCS".
var ParseAlgorithm = core.ParseAlgorithm

// Scheduler selects the forest scheduling scheme.
type Scheduler = stream.Scheduler

// ParseScheduler resolves "MMS" or "SRS" (either case).
var ParseScheduler = stream.ParseScheduler

// Forest schedulers.
const (
	// MMS is M_Mixers_Schedule (Algorithm 1), latency-oriented.
	MMS = stream.MMS
	// SRS is Storage_Reduced_Scheduling (Algorithm 2), storage-frugal.
	SRS = stream.SRS
)

// Config configures a demand-driven engine; see core.Config.
type Config = core.Config

// Engine plans droplet emission on demand; see core.Engine.
type Engine = core.Engine

// Batch is one Request's plan.
type Batch = core.Batch

// NewEngine builds a demand-driven mixture-preparation engine. A nil
// cfg.PlanCache plans through the process-wide cache PlanCacheStats reports.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.PlanCache == nil {
		cfg.PlanCache = plancache.Default()
	}
	return core.New(cfg)
}

// Graph is a base mix-split graph (one pass, two target droplets).
type Graph = mixgraph.Graph

// BuildGraph constructs the base mixing graph for a target with the given
// algorithm.
func BuildGraph(alg Algorithm, target Ratio) (*Graph, error) {
	return alg.Build(target)
}

// Forest is a mixing forest meeting a droplet demand.
type Forest = forest.Forest

// ForestStats aggregates a forest's droplet economy (Tms, W, I[], I).
type ForestStats = forest.Stats

// BuildForest grows a mixing forest over a base graph for a demand.
var BuildForest = forest.Build

// Schedule is a complete mixer/time assignment for a mixing forest.
type Schedule = sched.Schedule

// Forest and tree schedulers.
var (
	// ScheduleMMS runs Algorithm 1 on a forest with mc mixers.
	ScheduleMMS = sched.MMS
	// ScheduleSRS runs Algorithm 2.
	ScheduleSRS = sched.SRS
	// ScheduleOMS optimally schedules a single base graph (Luo-Akella).
	ScheduleOMS = sched.OMS
	// MixerLowerBound returns Mlb, the fewest mixers achieving
	// critical-path completion of a base graph.
	MixerLowerBound = sched.Mlb
	// StorageUnits counts the storage cells a schedule needs (Algorithm 3).
	StorageUnits = sched.StorageUnits
	// Gantt renders a schedule as the paper's modified Gantt chart (Fig 4).
	Gantt = sched.Gantt
)

// StreamConfig configures storage-constrained multi-pass streaming.
type StreamConfig = stream.Config

// StreamResult is a complete multi-pass emission plan.
type StreamResult = stream.Result

// Stream plans `demand` droplets under chip-resource constraints (Table 4).
// A nil cfg.Cache plans through the process-wide cache PlanCacheStats
// reports.
func Stream(cfg StreamConfig, demand int) (*StreamResult, error) {
	return StreamCtx(context.Background(), cfg, demand)
}

// StreamCtx is Stream with cooperative cancellation: a done context abandons
// the plan at the next pass boundary with an error wrapping ErrCanceled.
func StreamCtx(ctx context.Context, cfg StreamConfig, demand int) (*StreamResult, error) {
	if cfg.Cache == nil {
		cfg.Cache = plancache.Default()
	}
	return stream.RunCtx(ctx, cfg, demand)
}

// ErrCanceled is wrapped by every context-aware entry point (StreamCtx,
// RunWithFaultsCtx, ExecuteOptimizedCtx, Engine.RequestCtx, ...) when the
// caller's context is done; match with errors.Is. The original context cause
// (context.Canceled or context.DeadlineExceeded) is preserved in the chain.
var ErrCanceled = cancel.ErrCanceled

// Baseline plans the repeated-baseline engine (RMM / RRMA / RMTCS).
var Baseline = core.Baseline

// PlanCacheStats reports the hit/miss/eviction counters of the process-wide
// plan cache that Stream and NewEngine plan through unless given a cache of
// their own (see internal/plancache). The facade is the only layer that
// falls back to it: every layer below plans uncached on a nil cache.
func PlanCacheStats() plancache.Stats { return plancache.Default().Stats() }

// PurgePlanCache empties the process-wide plan cache, its demand scans
// included, and resets its counters; useful for benchmarking uncached
// planning paths.
func PurgePlanCache() {
	plancache.Default().Purge()
	plancache.Default().ResetStats()
}

// BaselineResult is a repeated-baseline plan.
type BaselineResult = core.BaselineResult

// Chip layer.
type (
	// Layout is a chip floorplan of reservoirs, mixers, storage cells,
	// waste reservoirs and the output port.
	Layout = chip.Layout
	// TransportPlan is a schedule bound to a layout: per-droplet moves and
	// total electrode actuations.
	TransportPlan = exec.Plan
	// TransportMatrix is the dense index-addressed inter-module
	// transport-cost matrix produced by the routing kernel.
	TransportMatrix = route.Matrix
)

var (
	// PCRLayout is the Fig. 5-style PCR master-mix floorplan.
	PCRLayout = chip.PCRLayout
	// AutoLayout builds a lattice floorplan for any protocol census.
	AutoLayout = chip.AutoLayout
	// TransportMatrixFor returns the dense transport-cost matrix of a
	// layout, served from the process-wide layout-fingerprint cache.
	TransportMatrixFor = route.MatrixFor
	// TransportMatrixBuilds counts from-scratch matrix computations; compare
	// deltas to verify hot paths flood each geometry exactly once.
	TransportMatrixBuilds = route.MatrixBuildCount
	// PurgeTransportMatrixCache drops every cached matrix (for cold-path
	// benchmarking).
	PurgeTransportMatrixCache = route.PurgeMatrixCache
	// PrewarmLayout eagerly floods and caches a layout's transport matrix so
	// the first Execute/ExecuteBatch on it is cache-hit fast.
	PrewarmLayout = core.PrewarmLayout
	// ErrUnknownModulePair is returned when a transport cost is requested
	// for a module outside the bound layout; match with errors.Is.
	ErrUnknownModulePair = route.ErrUnknownPair
	// Execute binds a schedule to a layout and counts electrode actuations.
	Execute = exec.Execute
	// ExecuteOptimized additionally searches over mixer bindings
	// (branch-and-bound with parallel first-level branches).
	ExecuteOptimized = exec.ExecuteOptimized
	// ExecuteOptimizedCtx is ExecuteOptimized with cooperative cancellation
	// checked at every branch of the binding search.
	ExecuteOptimizedCtx = exec.ExecuteOptimizedCtx
	// OptimizePlacement improves a floorplan for a traffic matrix by
	// incremental simulated annealing over the layout's dense transport
	// matrix (pass TransportMatrixFor's result).
	OptimizePlacement = chip.OptimizePlacement
)

// Cyberphysical execution under fault injection (see internal/faults and
// internal/runtime): replay a plan cycle-by-cycle against a deterministic
// seeded fault injector, sense errors at checkpoints, and recover through
// bounded retries, minimal subtree replays and graceful degradation.
type (
	// FaultParams configures the deterministic fault injector.
	FaultParams = faults.Params
	// FaultInjector injects seeded faults and logs every one it fires.
	FaultInjector = faults.Injector
	// FaultEvent is one injected fault.
	FaultEvent = faults.Event
	// FaultKind enumerates the injectable fault classes.
	FaultKind = faults.Kind
	// RecoveryPolicy bounds the runtime's sensing and recovery behaviour.
	RecoveryPolicy = runtime.Policy
	// RecoveryReport is the structured outcome of one closed-loop run.
	RecoveryReport = runtime.Report
)

var (
	// NewFaultInjector validates FaultParams and builds an injector.
	NewFaultInjector = faults.New
	// FaultRate builds FaultParams applying one uniform per-event rate to
	// every probabilistic fault class.
	FaultRate = faults.Rate
	// RunWithFaults executes one schedule on a layout under fault injection.
	RunWithFaults = runtime.Run
	// RunWithFaultsCtx is RunWithFaults with cooperative cancellation at
	// every cycle boundary; the partial report is still returned.
	RunWithFaultsCtx = runtime.RunCtx
	// RunStreamWithFaults executes every pass of a multi-pass stream plan.
	RunStreamWithFaults = runtime.RunStream
	// RunStreamWithFaultsCtx is RunStreamWithFaults with cooperative
	// cancellation at every pass and cycle boundary.
	RunStreamWithFaultsCtx = runtime.RunStreamCtx
	// ErrUnrecoverable is wrapped by every recovery dead-end the runtime
	// returns; match with errors.Is.
	ErrUnrecoverable = runtime.ErrUnrecoverable
)

// Invariant auditing (see internal/audit): every plan the engines produce
// and every closed-loop execution is checked against policy-independent
// invariants — mass conservation, exact CF arithmetic over 2^d denominators,
// the forest closed forms and the storage occupancy bound — and violations
// surface as typed errors, never as silently wrong droplets.
type (
	// AuditReport is the outcome of one invariant audit; Clean() reports
	// whether every check passed, Err() wraps the violations.
	AuditReport = audit.Report
	// AuditViolation is one typed invariant breach with its event trail.
	AuditViolation = audit.Violation
	// AuditCode classifies a violation (mass conservation, CF exactness,
	// target count, storage occupancy, ...).
	AuditCode = audit.Code
)

var (
	// ErrAuditViolation is wrapped by every failed audit; match with
	// errors.Is.
	ErrAuditViolation = audit.ErrViolation
	// AuditForest re-checks a mixing forest's closed-form invariants.
	AuditForest = audit.CheckForest
	// AuditSchedule re-checks a schedule's structural and storage
	// invariants.
	AuditSchedule = audit.CheckSchedule
	// AuditPlan audits a forest and its schedule together.
	AuditPlan = audit.CheckPlan
)

// Observability (see internal/obs): a process-wide metrics registry and
// structured JSONL event tracer, disabled by default at near-zero cost
// (one atomic pointer load per call site).
type (
	// ObsOptions configures the observability registry (trace sink).
	ObsOptions = obs.Options
	// ObsSnapshot is a point-in-time copy of every counter and histogram.
	ObsSnapshot = obs.Snapshot
)

var (
	// EnableObservability turns on metrics and (optionally) tracing
	// process-wide, starting from a fresh registry.
	EnableObservability = obs.Enable
	// DisableObservability returns every instrumented call site to its
	// near-zero disabled cost and drops the registry.
	DisableObservability = obs.Disable
	// ObservabilitySnapshot copies the current counters and histograms.
	ObservabilitySnapshot = obs.TakeSnapshot
	// WriteObservability renders the registry in a sorted, line-oriented
	// text format.
	WriteObservability = obs.WriteMetrics
)

// Replay walks a transport plan electrode by electrode, producing
// per-electrode wear counts, a heat map and the chip's reliability
// bottleneck (see internal/fluidsim).
var Replay = fluidsim.Replay

// WearResult is the outcome of a Replay.
type WearResult = fluidsim.Result

// RouteConcurrently routes all droplets of a transport plan simultaneously
// under the static and dynamic droplet-interference constraints
// (see internal/motion).
var RouteConcurrently = motion.RoutePlan

// ConcurrentRouting is the outcome of RouteConcurrently.
type ConcurrentRouting = motion.Result

// Multi-target planning (SDMT-flavoured extension; see internal/core and
// forest/multi.go): several mixtures over one fluid set share a combined
// forest and its waste pool.
type (
	// MultiRequest asks for droplets of one target mixture.
	MultiRequest = core.MultiRequest
	// MultiPlan is the scheduled combined plan.
	MultiPlan = core.MultiPlan
)

// PlanMulti builds and schedules a combined multi-target plan.
var PlanMulti = core.PlanMulti

// Volumetric error propagation (see internal/errormodel).
type (
	// ErrorParams configures the Monte-Carlo split/dispense error model.
	ErrorParams = errormodel.Params
	// ErrorReport summarises the CF error distribution of the targets.
	ErrorReport = errormodel.Report
)

var (
	// SimulateErrors propagates volumetric errors through a forest.
	SimulateErrors = errormodel.Simulate
	// RoundingErrorBound is the paper's 1/2^d CF approximation bound.
	RoundingErrorBound = errormodel.RoundingErrorBound
)

// Dilution layer — the N=2 special case of droplet streaming (the
// high-throughput dilution engine of Roy et al., IET-CDT 2013 [20]).
type (
	// DilutionTarget is a concentration factor c/2^d of a sample in buffer.
	DilutionTarget = dilution.Target
	// DilutionEngine streams droplets at one CF on demand.
	DilutionEngine = dilution.Engine
	// DilutionConfig carries the dilution engine's chip resources.
	DilutionConfig = dilution.Config
)

var (
	// NewDilutionEngine builds a dilution engine for a target CF.
	NewDilutionEngine = dilution.New
	// DilutionFromFraction rounds a desired concentration to c/2^d.
	DilutionFromFraction = dilution.FromFraction
)

// JSON export of planning artefacts (see internal/export).
var (
	// ExportForest, ExportSchedule, ExportStream and ExportPlan convert the
	// corresponding artefacts into stable JSON documents.
	ExportForest   = export.Forest
	ExportSchedule = export.Schedule
	ExportStream   = export.Stream
	ExportPlan     = export.Plan
	// WriteJSON emits any exported document as indented JSON.
	WriteJSON = export.Write
)

// Assay text format (see internal/assay): declarative mixture-preparation
// jobs compiled onto the engine.
type (
	// Assay is a parsed job description.
	Assay = assay.Assay
	// AssayReport is the outcome of running one.
	AssayReport = assay.RunReport
)

var (
	// ParseAssay reads an assay description.
	ParseAssay = assay.Parse
	// ParseAssayString is ParseAssay over a string.
	ParseAssayString = assay.ParseString
)

// SVG rendering of planning artefacts (see internal/svg).
var (
	// GanttSVG renders a schedule as an SVG Gantt chart.
	GanttSVG = svg.Gantt
	// LayoutSVG renders a floorplan.
	LayoutSVG = svg.Layout
	// WearSVG renders per-electrode wear as a heat map.
	WearSVG = svg.Wear
)

// Pin-constrained addressing and contamination analysis (see internal/pins
// and internal/contam).
type (
	// PinAssignment is a broadcast-addressing plan.
	PinAssignment = pins.Assignment
	// ContaminationReport summarises cross-contamination exposure.
	ContaminationReport = contam.Report
)

var (
	// BroadcastPins groups electrodes onto shared control pins.
	BroadcastPins = pins.Broadcast
	// AnalyzeContamination reports shared cells and residue transitions.
	AnalyzeContamination = contam.Analyze
)

// Exact scheduling and mobility analysis (see internal/sched).
var (
	// ScheduleExact computes a provably optimal schedule (small forests).
	ScheduleExact = sched.Exact
	// Mobilities computes per-task ASAP/ALAP windows.
	Mobilities = sched.Mobilities
	// CriticalTasks returns the zero-slack tasks at the tight horizon.
	CriticalTasks = sched.CriticalTasks
)

// Protocol is a named real-life mixture with provenance.
type Protocol = protocols.Protocol

var (
	// PCR16 is the paper's running example (2:1:1:1:1:1:9 at d=4).
	PCR16 = protocols.PCR16
	// PCRAtDepth approximates the PCR master-mix at accuracy level d.
	PCRAtDepth = protocols.PCRAtDepth
	// Protocols lists the five Table 2 example mixtures (L=256).
	Protocols = protocols.Table2
)
