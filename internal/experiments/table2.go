package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/protocols"
	"repro/internal/ratio"
)

// Table2Row is one protocol's costs under all nine schemes.
type Table2Row struct {
	// Key and Ratio identify the protocol (Ex.1 .. Ex.5).
	Key   string
	Ratio ratio.Ratio
	// Mixers is Mlb of the protocol's MM tree, the paper's setting.
	Mixers int
	// Results maps scheme name to its cost triple.
	Results map[string]Result
}

// Table2 evaluates the paper's five example protocols (L=256) at the given
// demand (the paper uses D=32) under all nine schemes. Protocols are
// evaluated in parallel (one worker per protocol, bounded by GOMAXPROCS);
// rows come back in the protocols' canonical order.
func Table2(demand int) ([]Table2Row, error) {
	ps := protocols.Table2()
	return parallel.Map(ps, func(_ int, p protocols.Protocol) (Table2Row, error) {
		mc, err := core.PaperMixers(p.Ratio)
		if err != nil {
			return Table2Row{}, fmt.Errorf("experiments: %s: %w", p.Key, err)
		}
		row := Table2Row{Key: p.Key, Ratio: p.Ratio, Mixers: mc, Results: map[string]Result{}}
		for _, s := range Schemes() {
			res, err := runScheme(s, p.Ratio, mc, demand)
			if err != nil {
				return Table2Row{}, fmt.Errorf("experiments: %s/%s: %w", p.Key, s.Name, err)
			}
			row.Results[s.Name] = res
		}
		return row, nil
	})
}

// FormatTable2 renders the rows in the paper's layout: one block per metric
// (Tc, q, I), protocols as rows, schemes as columns.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	schemes := Schemes()
	header := func(metric string) {
		fmt.Fprintf(&b, "%s\n%-6s %-4s", metric, "Ratio", "Mc")
		for _, s := range schemes {
			fmt.Fprintf(&b, " %9s", s.Name)
		}
		b.WriteByte('\n')
	}
	header("# Clock Cycles, Tc (Time of Completion)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-4d", r.Key, r.Mixers)
		for _, s := range schemes {
			fmt.Fprintf(&b, " %9d", r.Results[s.Name].Tc)
		}
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	header("# Storage Units Required, q")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-4d", r.Key, r.Mixers)
		for _, s := range schemes {
			fmt.Fprintf(&b, " %9d", r.Results[s.Name].Q)
		}
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	header("# Reactant (Input) Droplets, I")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-4d", r.Key, r.Mixers)
		for _, s := range schemes {
			fmt.Fprintf(&b, " %9d", r.Results[s.Name].I)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSVTable2 renders the rows as CSV: one line per (protocol, scheme).
func CSVTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("protocol,ratio,mixers,scheme,tc,q,inputs,waste\n")
	for _, r := range rows {
		for _, s := range Schemes() {
			res := r.Results[s.Name]
			fmt.Fprintf(&b, "%s,%s,%d,%s,%d,%d,%d,%d\n",
				r.Key, r.Ratio, r.Mixers, s.Name, res.Tc, res.Q, res.I, res.W)
		}
	}
	return b.String()
}
