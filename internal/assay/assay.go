// Package assay provides a small text format for describing
// mixture-preparation jobs — targets, chip resources, engine options and
// droplet demands — in the spirit of BioCoder (Ananthanarayanan & Thies,
// J. Biol. Eng. 2010), which the DAC 2014 paper cites as the source of its
// multi-fluid mixture workloads. A lab protocol becomes a few declarative
// lines that compile onto the streaming engine:
//
//	# PCR master-mix on a small chip
//	accuracy 4
//	mixture pcr 10 8 0.8 0.8 1 1 78.4     # percentages, sums to 100
//	fluids  pcr buffer dNTPs fwd rev template optimase water
//	ratio   probe 3:13                    # exact ratio alternative
//	chip    mixers=3 storage=5
//	use     MM SRS persist
//	demand  pcr 20
//	demand  pcr 12
//	demand  probe 8
//
// Lines are directives; '#' starts a comment; directives may appear in any
// order but demands run in file order. Parse reports errors with line
// numbers; Run executes the demands and returns per-demand plans.
package assay

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/ratio"
	"repro/internal/stream"
)

// Demand is one droplet request against a named mixture.
type Demand struct {
	Mixture string
	Count   int
	Line    int
}

// Assay is a parsed job description.
type Assay struct {
	// Accuracy is the CF accuracy level d for percentage mixtures
	// (default 4).
	Accuracy int
	// Mixtures maps name to target ratio.
	Mixtures map[string]ratio.Ratio
	// Mixers and Storage are the chip resources (0 = defaults: Mlb /
	// unlimited).
	Mixers, Storage int
	// Algorithm and Scheduler select the engine configuration.
	Algorithm core.Algorithm
	// Scheduler selects MMS or SRS.
	Scheduler stream.Scheduler
	// Persist enables the pool-persistent demand-driven mode.
	Persist bool
	// Demands run in file order.
	Demands []Demand

	order []string // mixture declaration order, for deterministic reporting
}

// Parse reads an assay description.
func Parse(r io.Reader) (*Assay, error) {
	a := &Assay{
		Accuracy: 4,
		Mixtures: map[string]ratio.Ratio{},
	}
	pendingNames := map[string][]string{} // fluids declared before their mixture
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		errf := func(format string, args ...interface{}) error {
			return fmt.Errorf("assay: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "accuracy":
			if len(fields) != 2 {
				return nil, errf("accuracy wants one integer")
			}
			d, err := strconv.Atoi(fields[1])
			if err != nil || d < 1 || d > ratio.MaxDepth {
				return nil, errf("bad accuracy %q", fields[1])
			}
			a.Accuracy = d
		case "mixture":
			if len(fields) < 4 {
				return nil, errf("mixture wants a name and at least two percentages")
			}
			name := fields[1]
			if _, dup := a.Mixtures[name]; dup {
				return nil, errf("mixture %q already declared", name)
			}
			percents := make([]float64, 0, len(fields)-2)
			for _, f := range fields[2:] {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, errf("bad percentage %q", f)
				}
				percents = append(percents, v)
			}
			r, err := ratio.FromPercent(percents, a.Accuracy)
			if err != nil {
				return nil, errf("mixture %q: %v", name, err)
			}
			a.Mixtures[name] = r
			a.order = append(a.order, name)
		case "ratio":
			if len(fields) != 3 {
				return nil, errf("ratio wants a name and a:b:c parts")
			}
			name := fields[1]
			if _, dup := a.Mixtures[name]; dup {
				return nil, errf("mixture %q already declared", name)
			}
			r, err := ratio.Parse(fields[2])
			if err != nil {
				return nil, errf("ratio %q: %v", name, err)
			}
			a.Mixtures[name] = r
			a.order = append(a.order, name)
		case "fluids":
			if len(fields) < 3 {
				return nil, errf("fluids wants a mixture name and fluid names")
			}
			pendingNames[fields[1]] = fields[2:]
		case "chip":
			for _, f := range fields[1:] {
				kv := strings.SplitN(f, "=", 2)
				if len(kv) != 2 {
					return nil, errf("chip option %q wants key=value", f)
				}
				v, err := strconv.Atoi(kv[1])
				if err != nil || v < 0 {
					return nil, errf("bad chip value %q", f)
				}
				switch kv[0] {
				case "mixers":
					a.Mixers = v
				case "storage":
					a.Storage = v
				default:
					return nil, errf("unknown chip option %q", kv[0])
				}
			}
		case "use":
			if len(fields) < 2 {
				return nil, errf("use wants an algorithm (and optionally a scheduler, 'persist')")
			}
			alg, err := core.ParseAlgorithm(fields[1])
			if err != nil {
				return nil, errf("%v", err)
			}
			a.Algorithm = alg
			for _, f := range fields[2:] {
				if f == "persist" {
					a.Persist = true
				} else if a.Scheduler, err = stream.ParseScheduler(f); err != nil {
					return nil, errf("unknown use option %q", f)
				}
			}
		case "demand":
			if len(fields) != 3 {
				return nil, errf("demand wants a mixture name and a count")
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 1 {
				return nil, errf("bad demand count %q", fields[2])
			}
			a.Demands = append(a.Demands, Demand{Mixture: fields[1], Count: n, Line: lineNo})
		default:
			return nil, errf("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("assay: %w", err)
	}
	// Resolve fluid names and demand references.
	for name, names := range pendingNames {
		r, ok := a.Mixtures[name]
		if !ok {
			return nil, fmt.Errorf("assay: fluids for unknown mixture %q", name)
		}
		named, err := r.WithNames(names...)
		if err != nil {
			return nil, fmt.Errorf("assay: fluids for %q: %v", name, err)
		}
		a.Mixtures[name] = named
	}
	for _, d := range a.Demands {
		if _, ok := a.Mixtures[d.Mixture]; !ok {
			return nil, fmt.Errorf("assay: line %d: demand for unknown mixture %q", d.Line, d.Mixture)
		}
	}
	if len(a.Demands) == 0 {
		return nil, fmt.Errorf("assay: no demands")
	}
	return a, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*Assay, error) { return Parse(strings.NewReader(s)) }

// DemandResult is one executed demand.
type DemandResult struct {
	Demand Demand
	Batch  *core.Batch
}

// RunReport is the outcome of executing an assay.
type RunReport struct {
	Results []DemandResult
	// Totals across all demands.
	TotalCycles  int
	TotalInputs  int64
	TotalWaste   int64
	TotalEmitted int
}

// Run executes the assay's demands in order, one engine per mixture
// (engines persist across a mixture's demands, so `use ... persist`
// carries the waste pool between them).
func (a *Assay) Run() (*RunReport, error) {
	engines := map[string]*core.Engine{}
	rep := &RunReport{}
	for _, d := range a.Demands {
		e, ok := engines[d.Mixture]
		if !ok {
			var err error
			e, err = core.New(core.Config{
				Target:      a.Mixtures[d.Mixture],
				Algorithm:   a.Algorithm,
				Scheduler:   a.Scheduler,
				Mixers:      a.Mixers,
				Storage:     a.Storage,
				PersistPool: a.Persist,
			})
			if err != nil {
				return nil, fmt.Errorf("assay: mixture %q: %w", d.Mixture, err)
			}
			engines[d.Mixture] = e
		}
		b, err := e.Request(d.Count)
		if err != nil {
			return nil, fmt.Errorf("assay: line %d: %w", d.Line, err)
		}
		rep.Results = append(rep.Results, DemandResult{Demand: d, Batch: b})
		rep.TotalCycles += b.Result.TotalCycles
		rep.TotalInputs += b.Result.TotalInputs
		rep.TotalWaste += b.Result.TotalWaste
		rep.TotalEmitted += b.Result.Emitted
	}
	return rep, nil
}

// Format renders the report.
func (r *RunReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %7s %8s %8s %8s %8s\n", "mixture", "demand", "cycles", "inputs", "waste", "emitted")
	for _, res := range r.Results {
		fmt.Fprintf(&b, "%-10s %7d %8d %8d %8d %8d\n",
			res.Demand.Mixture, res.Demand.Count,
			res.Batch.Result.TotalCycles, res.Batch.Result.TotalInputs,
			res.Batch.Result.TotalWaste, res.Batch.Result.Emitted)
	}
	fmt.Fprintf(&b, "%-10s %7s %8d %8d %8d %8d\n", "total", "", r.TotalCycles, r.TotalInputs, r.TotalWaste, r.TotalEmitted)
	return b.String()
}
