package experiments

import (
	"fmt"
	"strings"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/protocols"
	"repro/internal/route"
	"repro/internal/sched"
	"repro/internal/stream"
)

// Fig5 holds the chip-level comparison of §5: electrode actuations of the
// D=20 PCR streaming engine against ten repeated passes of the base MM tree
// on the same floorplan (paper: 386 vs 980).
type Fig5 struct {
	// Layout is the Fig. 5-style floorplan.
	Layout *chip.Layout
	// CostMatrix is the inter-module transport-cost matrix, indexed in
	// Layout.Modules order.
	CostMatrix *route.Matrix
	// ForestActuations is the streaming engine's electrode-actuation total.
	ForestActuations int
	// RepeatedActuations is the repeated-baseline total.
	RepeatedActuations int
	// ForestPlan is the engine's full transport plan.
	ForestPlan *exec.Plan
	// OptimizedActuations is the engine cost after placement optimization.
	OptimizedActuations int
}

// Fig5Compute reproduces the §5 experiment.
func Fig5Compute(demand int) (*Fig5, error) {
	layout := chip.PCRLayout()
	// MatrixFor shares the fingerprint-cached dense matrix with the
	// exec.Execute calls below, so this geometry floods exactly once.
	matrix, err := route.MatrixFor(layout)
	if err != nil {
		return nil, err
	}
	base, err := core.MM.Build(protocols.PCR16().Ratio)
	if err != nil {
		return nil, err
	}
	p, err := stream.BuildPlan(stream.Config{Base: base, Mixers: 3, Scheduler: stream.SRS}, demand)
	if err != nil {
		return nil, err
	}
	srs := p.Schedule()
	forestPlan, err := exec.Execute(srs, layout)
	if err != nil {
		return nil, err
	}
	oms, err := sched.OMS(base, 3)
	if err != nil {
		return nil, err
	}
	basePlan, err := exec.Execute(oms, layout)
	if err != nil {
		return nil, err
	}
	passes := (demand + 1) / 2

	// Placement optimization (as in §5: "the relative positions ... are
	// optimized considering the total droplet-transportation cost").
	opt, _, err := chip.OptimizePlacement(layout, forestPlan.Flow, matrix, 600, 1)
	if err != nil {
		return nil, err
	}
	optPlan, err := exec.Execute(srs, opt)
	if err != nil {
		return nil, err
	}

	return &Fig5{
		Layout:              layout,
		CostMatrix:          matrix,
		ForestActuations:    forestPlan.TotalCost,
		RepeatedActuations:  passes * basePlan.TotalCost,
		ForestPlan:          forestPlan,
		OptimizedActuations: optPlan.TotalCost,
	}, nil
}

// Format renders the comparison with the floorplan and the cost matrix.
func (f *Fig5) Format() string {
	var b strings.Builder
	b.WriteString("PCR master-mix chip (Fig. 5 reproduction)\n\n")
	b.WriteString(f.Layout.Render())
	b.WriteString("\nTransport-cost matrix (electrodes per shortest path):\n")
	names := make([]string, 0, len(f.Layout.Modules))
	for _, m := range f.Layout.Modules {
		names = append(names, m.Name)
	}
	fmt.Fprintf(&b, "%-5s", "")
	for _, n := range names {
		fmt.Fprintf(&b, "%5s", n)
	}
	b.WriteByte('\n')
	for i, a := range names {
		fmt.Fprintf(&b, "%-5s", a)
		for j := range names {
			fmt.Fprintf(&b, "%5d", f.CostMatrix.At(i, j))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "\nElectrode actuations (D=20 PCR master-mix):\n")
	fmt.Fprintf(&b, "  streaming engine (SRS forest):   %d\n", f.ForestActuations)
	fmt.Fprintf(&b, "  after placement optimization:    %d\n", f.OptimizedActuations)
	fmt.Fprintf(&b, "  repeated MM baseline (10 passes): %d\n", f.RepeatedActuations)
	fmt.Fprintf(&b, "  improvement: %.2fx (paper: 980/386 = 2.54x)\n",
		float64(f.RepeatedActuations)/float64(f.ForestActuations))
	return b.String()
}
