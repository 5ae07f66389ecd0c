// Command experiments regenerates every table and figure of the paper's
// evaluation section (§6). Without flags it runs everything; individual
// artefacts can be selected. Results print to stdout; -csvdir additionally
// writes machine-readable CSV files.
//
// Usage:
//
//	experiments                     # everything (Table 3 / Fig. 6 take ~min)
//	experiments -table2 -table4     # selected artefacts
//	experiments -quick              # smaller synthetic population
//	experiments -csvdir results     # also write CSVs
//
// The sweeps fan out over GOMAXPROCS workers; GOMAXPROCS=1 runs them on one
// goroutine with byte-identical output.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/errormodel"
	"repro/internal/experiments"
	"repro/internal/protocols"
	"repro/internal/ratio"
	"repro/internal/synth"
)

func main() {
	var (
		t2     = flag.Bool("table2", false, "Table 2: five protocols, nine schemes")
		t3     = flag.Bool("table3", false, "Table 3: average improvements over the synthetic population")
		t4     = flag.Bool("table4", false, "Table 4: storage-constrained PCR streaming")
		f5     = flag.Bool("fig5", false, "Fig. 5: chip layout and electrode actuations")
		f6     = flag.Bool("fig6", false, "Fig. 6: average Tc and I vs demand")
		f7     = flag.Bool("fig7", false, "Fig. 7: Tc and q vs mixer count")
		ext    = flag.Bool("ext", false, "extension experiments E1-E4 (RSM roster, persistence, routing, robustness)")
		e13    = flag.Bool("e13", false, "E13: error-aware vs error-blind planning across fault magnitudes")
		quick  = flag.Bool("quick", false, "use the L=16 population for Table 3 / Fig. 6 (fast)")
		csvdir = flag.String("csvdir", "", "directory to write CSV files into")
	)
	flag.Parse()
	all := !(*t2 || *t3 || *t4 || *f5 || *f6 || *f7 || *ext || *e13)
	if err := run(all || *t2, all || *t3, all || *t4, all || *f5, all || *f6, all || *f7, all || *ext, all || *e13, *quick, *csvdir); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(t2, t3, t4, f5, f6, f7, ext, e13 bool, quick bool, csvdir string) error {
	writeCSV := func(name, content string) error {
		if csvdir == "" {
			return nil
		}
		if err := os.MkdirAll(csvdir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(csvdir, name), []byte(content), 0o644)
	}
	dataset := func() ([]ratio.Ratio, error) {
		if quick {
			return synth.Dataset(16, 2, 6)
		}
		return synth.PaperDataset(), nil
	}

	if t2 {
		fmt.Println("=== Table 2: Tc, q and I for five protocols under nine schemes (D=32) ===")
		rows, err := experiments.Table2(32)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable2(rows))
		if err := writeCSV("table2.csv", experiments.CSVTable2(rows)); err != nil {
			return err
		}
	}
	if t3 {
		ds, err := dataset()
		if err != nil {
			return err
		}
		fmt.Printf("=== Table 3: average %% improvements over %d synthetic ratios (D=32) ===\n", len(ds))
		tab, err := experiments.Table3Compute(ds, 32)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable3(tab))
	}
	if t4 {
		fmt.Println("=== Table 4: PCR streaming under storage constraints ===")
		cfg := experiments.DefaultTable4Config()
		cells, err := experiments.Table4(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable4(cells, cfg))
		if err := writeCSV("table4.csv", experiments.CSVTable4(cells)); err != nil {
			return err
		}
	}
	if f5 {
		fmt.Println("=== Fig. 5: PCR chip layout and electrode-actuation comparison ===")
		fig, err := experiments.Fig5Compute(20)
		if err != nil {
			return err
		}
		fmt.Println(fig.Format())
	}
	if f6 {
		ds, err := dataset()
		if err != nil {
			return err
		}
		fmt.Printf("=== Fig. 6: average Tc and I vs demand over %d ratios ===\n", len(ds))
		demands := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 20, 24, 28, 32}
		fig, err := experiments.Fig6Compute(ds, demands)
		if err != nil {
			return err
		}
		fmt.Println(fig.ChartTc())
		fmt.Println(fig.ChartI())
		if err := writeCSV("fig6.csv", fig.CSV()); err != nil {
			return err
		}
	}
	if ext {
		fmt.Println("=== Extension experiments (beyond the paper's evaluation) ===")
		e1, err := experiments.E1AlgorithmRoster()
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatE1(e1))
		e2, err := experiments.E2PersistentPool([][]int{{4, 4, 4, 4}, {2, 2, 2, 2, 2, 2, 2, 2}, {6, 10, 16}, {16}})
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatE2(e2))
		e3, err := experiments.E3ConcurrentRouting([]int{8, 16, 20, 32})
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatE3(e3))
		params := errormodel.Params{SplitImbalance: 0.05, DispenseError: 0.02, Trials: 500, Seed: 1}
		e4, err := experiments.E4ErrorRobustness(protocols.PCR16().Ratio, params)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatE4(e4, params))
		e5, err := experiments.E5OptimalityGap(200, 1)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatE5(e5))
	}
	if e13 {
		fmt.Println("=== E13: error-aware vs error-blind planning across fault magnitudes ===")
		cfg := experiments.DefaultE13Config()
		rows, err := experiments.E13ErrorAwareSweep(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatE13(rows, cfg))
		if err := writeCSV("e13_error_aware.csv", experiments.CSVE13(rows)); err != nil {
			return err
		}
	}
	if f7 {
		fmt.Println("=== Fig. 7: Tc and q vs mixer count (PCR, D=32) ===")
		mixers := make([]int, 15)
		for i := range mixers {
			mixers[i] = i + 1
		}
		fig, err := experiments.Fig7Compute(mixers, 32)
		if err != nil {
			return err
		}
		fmt.Println(fig.ChartTc())
		fmt.Println(fig.ChartQ())
		if err := writeCSV("fig7.csv", fig.CSV()); err != nil {
			return err
		}
	}
	return nil
}
