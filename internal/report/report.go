// Package report generates a complete markdown dossier for one MDST
// instance: the base tree, the mixing forest and its droplet economy, the
// schedule with its Gantt chart and quality metrics, the baseline
// comparison, and — when a chip layout is supplied — the transport plan,
// concurrent routing, electrode wear, pin count and contamination exposure.
// One call exercises every layer of the library, which also makes the
// package a natural integration test surface.
package report

import (
	"fmt"
	"strings"

	"repro/internal/chip"
	"repro/internal/contam"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fluidsim"
	"repro/internal/motion"
	"repro/internal/pins"
	"repro/internal/ratio"
	"repro/internal/sched"
	"repro/internal/stream"
)

// Options selects the instance and the report depth.
type Options struct {
	// Target is the mixture.
	Target ratio.Ratio
	// Demand is the droplet count.
	Demand int
	// Algorithm and Scheduler configure the engine (defaults MM, MMS).
	Algorithm core.Algorithm
	Scheduler stream.Scheduler
	// Mixers is Mc (0 = Mlb of the MM tree).
	Mixers int
	// Layout, when non-nil, adds the chip sections.
	Layout *chip.Layout
}

// Generate builds the report.
func Generate(o Options) (string, error) {
	if o.Demand < 1 {
		return "", fmt.Errorf("report: demand %d", o.Demand)
	}
	base, err := o.Algorithm.Build(o.Target)
	if err != nil {
		return "", err
	}
	mixers := o.Mixers
	if mixers == 0 {
		if mixers, err = core.PaperMixers(o.Target); err != nil {
			return "", err
		}
	}
	p, err := stream.BuildPlan(stream.Config{Base: base, Mixers: mixers, Scheduler: o.Scheduler}, o.Demand)
	if err != nil {
		return "", err
	}
	s := p.Schedule()
	baseline, err := core.Baseline(o.Algorithm, o.Target, mixers, o.Demand)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# MDST plan: %s, D=%d\n\n", o.Target, o.Demand)
	fmt.Fprintf(&b, "- base algorithm: %s (depth %d, %d mix-splits, %d inputs per pass)\n",
		o.Algorithm, base.Root.Level, base.Stats().Mixes, base.Stats().InputTotal)
	st := p.Stats
	fmt.Fprintf(&b, "- mixing forest: |F|=%d, Tms=%d, W=%d, I=%d, I[]=%v\n",
		st.Trees, st.Mixes, st.Waste, st.InputTotal, st.Inputs)
	fmt.Fprintf(&b, "- schedule (%s, %d mixers): Tc=%d, q=%d\n",
		s.Algorithm, mixers, s.Cycles, p.Storage)
	fmt.Fprintf(&b, "- repeated baseline: Tr=%d, Ir=%d (engine saves %.1f%% time, %.1f%% reactant)\n\n",
		baseline.Cycles, baseline.Inputs,
		100*float64(baseline.Cycles-s.Cycles)/float64(baseline.Cycles),
		100*float64(baseline.Inputs-st.InputTotal)/float64(baseline.Inputs))

	b.WriteString("## Gantt\n\n```\n")
	b.WriteString(sched.Gantt(s))
	b.WriteString("```\n")

	if o.Layout != nil {
		plan, err := exec.Execute(s, o.Layout)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\n## Chip execution\n\n- electrode actuations: %d over %d moves, %d storage cells\n",
			plan.TotalCost, len(plan.Moves), plan.StorageCellsUsed())
		wear, err := fluidsim.Replay(plan, o.Layout)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "- hottest electrode: (%d,%d) with %d actuations\n",
			wear.Hottest.X, wear.Hottest.Y, wear.MaxActuations)
		routed, err := motion.RoutePlan(plan, o.Layout)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "- concurrent routing: %d micro-steps vs %d serialized (%.2fx)\n",
			routed.Makespan, routed.Serialized, routed.Speedup())
		pa, err := pins.Broadcast(routed, o.Layout)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "- broadcast addressing: %d electrodes on %d pins (%.2fx)\n",
			pa.Electrodes, pa.Pins, pa.Reduction())
		cr := contam.Analyze(routed)
		fmt.Fprintf(&b, "- contamination: %d/%d route cells shared, %d residue transitions\n",
			cr.SharedCells, cr.Cells, cr.Transitions)
		b.WriteString("\n```\n")
		b.WriteString(wear.Heatmap(o.Layout))
		b.WriteString("```\n")
	}
	return b.String(), nil
}
