package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/ratio"
	"repro/internal/stream"
	"repro/internal/textplot"
)

// Fig6Schemes are the curves of Fig. 6: two repeated baselines against the
// MMS-scheduled forest engines over MM and MTCS.
func Fig6Schemes() []Scheme {
	return []Scheme{
		{Name: "RMM", Algorithm: core.MM, Repeated: true},
		{Name: "RMTCS", Algorithm: core.MTCS, Repeated: true},
		{Name: "MM+MMS", Algorithm: core.MM, Scheduler: stream.MMS},
		{Name: "MTCS+MMS", Algorithm: core.MTCS, Scheduler: stream.MMS},
	}
}

// Fig6 holds the demand sweeps of Fig. 6: for each scheme, the average time
// of completion (a) and average total input usage (b) over a ratio
// population, per demand.
type Fig6 struct {
	Demands []int
	// AvgTc and AvgI map scheme name to per-demand averages.
	AvgTc map[string][]float64
	AvgI  map[string][]float64
}

// fig6Delta is one ratio's (Tc, I) matrix, flattened [scheme][demand].
type fig6Delta struct {
	tc, i []float64
}

// Fig6Compute sweeps the demands over the dataset. The paper uses demands
// 1..10 for Tc and 2..32 for I over its synthetic population.
//
// The sweep fans out per ratio over a GOMAXPROCS-sized worker pool and
// merges the per-ratio sums in dataset order, so the floating-point
// averages match the GOMAXPROCS=1 path bit-for-bit.
func Fig6Compute(dataset []ratio.Ratio, demands []int) (*Fig6, error) {
	if len(dataset) == 0 || len(demands) == 0 {
		return nil, fmt.Errorf("experiments: fig6 needs a dataset and demands")
	}
	out := &Fig6{
		Demands: demands,
		AvgTc:   map[string][]float64{},
		AvgI:    map[string][]float64{},
	}
	schemes := Fig6Schemes()
	for _, s := range schemes {
		out.AvgTc[s.Name] = make([]float64, len(demands))
		out.AvgI[s.Name] = make([]float64, len(demands))
	}
	deltas, err := parallel.Map(dataset, func(_ int, r ratio.Ratio) (fig6Delta, error) {
		d := fig6Delta{
			tc: make([]float64, len(schemes)*len(demands)),
			i:  make([]float64, len(schemes)*len(demands)),
		}
		mc, err := core.PaperMixers(r)
		if err != nil {
			return fig6Delta{}, err
		}
		for si, s := range schemes {
			for di, demand := range demands {
				res, err := runScheme(s, r, mc, demand)
				if err != nil {
					return fig6Delta{}, err
				}
				d.tc[si*len(demands)+di] = float64(res.Tc)
				d.i[si*len(demands)+di] = float64(res.I)
			}
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	for _, d := range deltas { // dataset order: deterministic FP accumulation
		for si, s := range schemes {
			for di := range demands {
				out.AvgTc[s.Name][di] += d.tc[si*len(demands)+di]
				out.AvgI[s.Name][di] += d.i[si*len(demands)+di]
			}
		}
	}
	n := float64(len(dataset))
	for _, s := range schemes {
		for di := range demands {
			out.AvgTc[s.Name][di] /= n
			out.AvgI[s.Name][di] /= n
		}
	}
	return out, nil
}

// ChartTc renders Fig. 6(a) as an ASCII chart.
func (f *Fig6) ChartTc() string {
	return f.chart("Fig. 6(a): average time of completion vs demand", "demand D", "avg Tc", f.AvgTc)
}

// ChartI renders Fig. 6(b).
func (f *Fig6) ChartI() string {
	return f.chart("Fig. 6(b): average input reactant usage vs demand", "demand D", "avg I", f.AvgI)
}

func (f *Fig6) chart(title, x, y string, data map[string][]float64) string {
	var series []textplot.Series
	for _, s := range Fig6Schemes() {
		series = append(series, textplot.Series{Name: s.Name, Y: data[s.Name]})
	}
	return textplot.Chart(title, x, y, textplot.Ints(f.Demands), series, 60, 16)
}

// CSV renders both panels as CSV.
func (f *Fig6) CSV() string {
	out := "demand"
	for _, s := range Fig6Schemes() {
		out += fmt.Sprintf(",tc_%s,i_%s", s.Name, s.Name)
	}
	out += "\n"
	for di, d := range f.Demands {
		out += fmt.Sprintf("%d", d)
		for _, s := range Fig6Schemes() {
			out += fmt.Sprintf(",%.2f,%.2f", f.AvgTc[s.Name][di], f.AvgI[s.Name][di])
		}
		out += "\n"
	}
	return out
}
