package experiments

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/ratio"
	"repro/internal/stream"
)

// Table3 holds the average percentage improvements of the forest schedulers
// over the repeated baselines across a ratio population, per base algorithm
// — the paper's Table 3 plus its §1/§6 headline aggregates.
type Table3 struct {
	// Ratios is the population size evaluated.
	Ratios int
	// Demand is the droplet demand per instance (paper: 32).
	Demand int
	// Per-algorithm average improvements in percent. Keys are the base
	// algorithm names ("MM", "RMA", "MTCS").
	TcMMSOverRepeated map[string]float64 // MMS||R on Tc
	TcSRSOverRepeated map[string]float64 // SRS||R on Tc
	IOverRepeated     map[string]float64 // MMS/SRS||R on I (identical: I is a forest property)
	QSRSOverMMS       map[string]float64 // SRS||MMS on q
	TcSRSOverMMS      map[string]float64 // SRS||MMS on Tc (negative = SRS slower)
}

// ErrNoSamples reports that an algorithm's accumulator finished a population
// sweep with zero samples; averaging would silently divide by zero.
var ErrNoSamples = errors.New("experiments: no samples accumulated for algorithm")

// table3Delta is one ratio's contribution to the per-algorithm averages,
// indexed like core.Algorithms().
type table3Delta struct {
	tcMMS, tcSRS, i, q, tcRel float64
}

// table3Ratio evaluates all three schemes of all three algorithms on one
// ratio — the fan-out unit of the Table 3 sweep (plans are not memoised;
// see runScheme).
func table3Ratio(r ratio.Ratio, demand int) ([]table3Delta, error) {
	algs := core.Algorithms()
	mc, err := core.PaperMixers(r)
	if err != nil {
		return nil, err
	}
	out := make([]table3Delta, len(algs))
	for ai, alg := range algs {
		baseline, err := runScheme(Scheme{Algorithm: alg, Repeated: true}, r, mc, demand)
		if err != nil {
			return nil, err
		}
		mms, err := runScheme(Scheme{Algorithm: alg, Scheduler: stream.MMS}, r, mc, demand)
		if err != nil {
			return nil, err
		}
		srs, err := runScheme(Scheme{Algorithm: alg, Scheduler: stream.SRS}, r, mc, demand)
		if err != nil {
			return nil, err
		}
		d := &out[ai]
		if baseline.Tc > 0 {
			d.tcMMS = pct(baseline.Tc-mms.Tc, baseline.Tc)
			d.tcSRS = pct(baseline.Tc-srs.Tc, baseline.Tc)
		}
		if baseline.I > 0 {
			d.i = pct64(baseline.I-mms.I, baseline.I)
		}
		if mms.Q > 0 {
			d.q = pct(mms.Q-srs.Q, mms.Q)
		}
		if mms.Tc > 0 {
			d.tcRel = pct(mms.Tc-srs.Tc, mms.Tc)
		}
	}
	return out, nil
}

// Table3Compute evaluates the population at the given demand. Pass
// synth.PaperDataset() for the paper's configuration.
//
// The sweep fans out per ratio over a GOMAXPROCS-sized worker pool and
// merges the per-ratio deltas in dataset order with the algorithms in
// core.Algorithms() order, reproducing the sequential floating-point
// accumulation bit-for-bit.
func Table3Compute(dataset []ratio.Ratio, demand int) (*Table3, error) {
	t := &Table3{
		Ratios:            len(dataset),
		Demand:            demand,
		TcMMSOverRepeated: map[string]float64{},
		TcSRSOverRepeated: map[string]float64{},
		IOverRepeated:     map[string]float64{},
		QSRSOverMMS:       map[string]float64{},
		TcSRSOverMMS:      map[string]float64{},
	}
	if len(dataset) == 0 {
		return nil, fmt.Errorf("experiments: empty dataset")
	}
	deltas, err := parallel.Map(dataset, func(_ int, r ratio.Ratio) ([]table3Delta, error) {
		return table3Ratio(r, demand)
	})
	if err != nil {
		return nil, err
	}
	type acc struct {
		tcMMS, tcSRS, i, q, tcRel float64
		n                         int
	}
	algs := core.Algorithms()
	accs := make([]acc, len(algs))
	for _, ds := range deltas { // dataset order: deterministic FP accumulation
		for ai := range algs {
			a := &accs[ai]
			a.n++
			a.tcMMS += ds[ai].tcMMS
			a.tcSRS += ds[ai].tcSRS
			a.i += ds[ai].i
			a.q += ds[ai].q
			a.tcRel += ds[ai].tcRel
		}
	}
	for ai, alg := range algs {
		a := accs[ai]
		if a.n == 0 {
			return nil, fmt.Errorf("%w: %s", ErrNoSamples, alg)
		}
		n := float64(a.n)
		name := alg.String()
		t.TcMMSOverRepeated[name] = a.tcMMS / n
		t.TcSRSOverRepeated[name] = a.tcSRS / n
		t.IOverRepeated[name] = a.i / n
		t.QSRSOverMMS[name] = a.q / n
		t.TcSRSOverMMS[name] = a.tcRel / n
	}
	return t, nil
}

func pct(delta, base int) float64     { return float64(delta) / float64(base) * 100 }
func pct64(delta, base int64) float64 { return float64(delta) / float64(base) * 100 }

// HeadlineTc returns the paper's §1 aggregate: the average Tc reduction of
// MMS over the repeated baselines across all three base algorithms
// (the paper reports 72.5%).
func (t *Table3) HeadlineTc() float64 {
	return avg3(t.TcMMSOverRepeated)
}

// HeadlineI returns the §1 aggregate reactant reduction (paper: 75%).
func (t *Table3) HeadlineI() float64 {
	return avg3(t.IOverRepeated)
}

// HeadlineQ returns the §6 aggregate storage reduction of SRS over MMS
// (paper: 25.5%).
func (t *Table3) HeadlineQ() float64 {
	return avg3(t.QSRSOverMMS)
}

// HeadlineTcSRS returns the §6 aggregate slowdown of SRS vs MMS
// (paper: 4.6% more time, i.e. -4.6 here).
func (t *Table3) HeadlineTcSRS() float64 {
	return avg3(t.TcSRSOverMMS)
}

// avg3 averages the per-algorithm entries actually present in m. A fully
// populated Table3 always carries all three; the guard keeps a partially
// populated (hand-constructed) table from skewing the average with phantom
// zeros or dividing by zero on an empty map.
func avg3(m map[string]float64) float64 {
	var sum float64
	n := 0
	for _, alg := range core.Algorithms() {
		v, ok := m[alg.String()]
		if !ok {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// FormatTable3 renders the table in the paper's layout.
func FormatTable3(t *Table3) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Average %% improvements over %d target ratios (D=%d)\n", t.Ratios, t.Demand)
	fmt.Fprintf(&b, "%-44s %-10s %8s %8s %8s\n", "Parameter", "Schemes", "MM", "RMA", "MTCS")
	row := func(param, schemes string, m map[string]float64) {
		fmt.Fprintf(&b, "%-44s %-10s %7.1f%% %7.1f%% %7.1f%%\n",
			param, schemes, m["MM"], m["RMA"], m["MTCS"])
	}
	row("Time of Completion, Tc", "MMS||R", t.TcMMSOverRepeated)
	row("Time of Completion, Tc", "SRS||R", t.TcSRSOverRepeated)
	row("Total Input Requirements, I", "MMS||R", t.IOverRepeated)
	row("Total Input Requirements, I", "SRS||R", t.IOverRepeated)
	row("# Storage Units, q", "SRS||MMS", t.QSRSOverMMS)
	row("Time of Completion, Tc", "SRS||MMS", t.TcSRSOverMMS)
	fmt.Fprintf(&b, "\nHeadlines: Tc %.1f%% faster, I %.1f%% less reactant (MMS vs repeated);\n",
		t.HeadlineTc(), t.HeadlineI())
	fmt.Fprintf(&b, "           q %.1f%% fewer storage units at %.1f%% extra time (SRS vs MMS)\n",
		t.HeadlineQ(), -t.HeadlineTcSRS())
	return b.String()
}
