package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/protocols"
	"repro/internal/stream"
	"repro/internal/textplot"
)

// Fig7 holds the mixer-count sweep of Fig. 7: Tc (a) and q (b) for the
// RMA-based engine under MMS and SRS, for the PCR master-mix ratio
// 2:1:1:1:1:1:9 with D=32.
type Fig7 struct {
	Mixers []int
	TcMMS  []int
	TcSRS  []int
	QMMS   []int
	QSRS   []int
}

// Fig7Compute sweeps the mixer count (the paper uses 1..15). Each (mixer
// count, scheme) cell is planned by stream.BuildPlan, so every plan passes
// audit.CheckPlan; mixer counts are spread over a GOMAXPROCS-sized worker
// pool, with results assembled in mixer order.
func Fig7Compute(mixers []int, demand int) (*Fig7, error) {
	base, err := core.RMA.Build(protocols.PCR16().Ratio)
	if err != nil {
		return nil, err
	}
	type cell struct {
		tcMMS, qMMS, tcSRS, qSRS int
	}
	cells, err := parallel.Map(mixers, func(_ int, mc int) (cell, error) {
		var c cell
		for _, scheduler := range []stream.Scheduler{stream.MMS, stream.SRS} {
			p, err := stream.BuildPlan(stream.Config{Base: base, Mixers: mc, Scheduler: scheduler}, demand)
			if err != nil {
				return cell{}, fmt.Errorf("experiments: fig7 M=%d: %w", mc, err)
			}
			if scheduler == stream.MMS {
				c.tcMMS, c.qMMS = p.Cycles, p.Storage
			} else {
				c.tcSRS, c.qSRS = p.Cycles, p.Storage
			}
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	out := &Fig7{Mixers: mixers}
	for _, c := range cells {
		out.TcMMS = append(out.TcMMS, c.tcMMS)
		out.QMMS = append(out.QMMS, c.qMMS)
		out.TcSRS = append(out.TcSRS, c.tcSRS)
		out.QSRS = append(out.QSRS, c.qSRS)
	}
	return out, nil
}

// ChartTc renders Fig. 7(a).
func (f *Fig7) ChartTc() string {
	return textplot.Chart("Fig. 7(a): Tc vs #mixers (PCR 2:1:1:1:1:1:9, D=32)",
		"#mixers M", "Tc", textplot.Ints(f.Mixers), []textplot.Series{
			{Name: "RMA+MMS", Y: textplot.Ints(f.TcMMS)},
			{Name: "RMA+SRS", Y: textplot.Ints(f.TcSRS)},
		}, 60, 14)
}

// ChartQ renders Fig. 7(b).
func (f *Fig7) ChartQ() string {
	return textplot.Chart("Fig. 7(b): storage q vs #mixers (PCR 2:1:1:1:1:1:9, D=32)",
		"#mixers M", "q", textplot.Ints(f.Mixers), []textplot.Series{
			{Name: "RMA+MMS", Y: textplot.Ints(f.QMMS)},
			{Name: "RMA+SRS", Y: textplot.Ints(f.QSRS)},
		}, 60, 14)
}

// CSV renders the sweep as CSV.
func (f *Fig7) CSV() string {
	out := "mixers,tc_mms,tc_srs,q_mms,q_srs\n"
	for i, m := range f.Mixers {
		out += fmt.Sprintf("%d,%d,%d,%d,%d\n", m, f.TcMMS[i], f.TcSRS[i], f.QMMS[i], f.QSRS[i])
	}
	return out
}
