// Command mdst plans one MDST instance: given a target ratio, a droplet
// demand and chip resources, it prints the mixing forest, the schedule as a
// Gantt chart, and the cost summary, optionally comparing against the
// repeated baseline.
//
// Usage:
//
//	mdst -ratio 2:1:1:1:1:1:9 -demand 20 -mixers 3 -alg MM -sched SRS
//	mdst -ratio 26:21:2:2:3:3:199 -demand 32 -storage 7 -forest -baseline
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	dmfb "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
)

func main() { os.Exit(cliMain(os.Args[1:], os.Stderr)) }

// cliMain is the whole CLI minus process exit: it parses args on its own
// FlagSet and returns the exit status (0 ok, 1 runtime error, 2 usage), so
// tests can pin the exit-code contract without spawning a subprocess.
func cliMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdst", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ratioStr   = fs.String("ratio", "2:1:1:1:1:1:9", "target ratio a1:a2:...:aN (sum must be a power of two)")
		demand     = fs.Int("demand", 20, "number of target droplets D")
		mixers     = fs.Int("mixers", 0, "on-chip mixers Mc (0 = Mlb of the MM tree)")
		storage    = fs.Int("storage", 0, "on-chip storage units q' (0 = unlimited)")
		algName    = fs.String("alg", "MM", "base mixing algorithm: MM, RMA or MTCS")
		schedName  = fs.String("sched", "MMS", "forest scheduler: MMS or SRS")
		showTree   = fs.Bool("tree", false, "print the base mixing tree")
		showForest = fs.Bool("forest", false, "print the mixing forest")
		baseline   = fs.Bool("baseline", false, "compare against the repeated baseline")
		jsonOut    = fs.Bool("json", false, "emit the plan as JSON instead of text")
		reportOut  = fs.Bool("report", false, "emit a full markdown dossier (plan + chip analysis)")
		tracePath  = fs.String("trace", "", "write a JSONL structured event trace to this file")
		metrics    = fs.Bool("metrics", false, "dump the metrics registry to stderr on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	finish, err := obs.EnableCLI(*tracePath, *metrics, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "mdst:", err)
		return 1
	}
	err = run(*ratioStr, *demand, *mixers, *storage, *algName, *schedName, *showTree, *showForest, *baseline, *jsonOut, *reportOut)
	if ferr := finish(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(stderr, "mdst:", err)
		return 1
	}
	return 0
}

func run(ratioStr string, demand, mixers, storage int, algName, schedName string, showTree, showForest, baseline, jsonOut, reportOut bool) error {
	target, err := dmfb.ParseRatio(ratioStr)
	if err != nil {
		return err
	}
	alg, err := dmfb.ParseAlgorithm(algName)
	if err != nil {
		return err
	}
	scheduler, err := dmfb.ParseScheduler(schedName)
	if err != nil {
		return err
	}

	if reportOut {
		// Generate a floorplan sized for the target: its fluids, the mixer
		// count in use, and a storage row.
		mcForLayout := mixers
		if mcForLayout == 0 {
			if mcForLayout, err = core.PaperMixers(target); err != nil {
				return err
			}
		}
		layout, err := dmfb.AutoLayout(target.N(), mcForLayout, 8)
		if err != nil {
			return err
		}
		out, err := report.Generate(report.Options{
			Target:    target,
			Demand:    demand,
			Algorithm: alg,
			Scheduler: scheduler,
			Mixers:    mixers,
			Layout:    layout,
		})
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}

	engine, err := dmfb.NewEngine(dmfb.Config{
		Target:    target,
		Algorithm: alg,
		Scheduler: scheduler,
		Mixers:    mixers,
		Storage:   storage,
	})
	if err != nil {
		return err
	}
	if showTree {
		fmt.Println(engine.Base().Render())
	}
	batch, err := engine.Request(demand)
	if err != nil {
		return err
	}
	res := batch.Result
	if jsonOut {
		return dmfb.WriteJSON(os.Stdout, dmfb.ExportStream(res))
	}
	fmt.Printf("target %s (d=%d, %d fluids), demand D=%d, %s base, %d mixers, %s\n",
		target, target.Depth(), target.N(), demand, alg, engine.Mixers(), scheduler)
	fmt.Printf("plan: %d pass(es), D'=%d per pass\n", len(res.Passes), res.PerPassDemand)
	for i, p := range res.Passes {
		st := p.Plan.Stats
		fmt.Printf("pass %d: emits %d droplets, Tc=%d, q=%d, Tms=%d, W=%d, I=%d I[]=%v\n",
			i+1, p.Demand, p.Plan.Cycles, p.Storage, st.Mixes, st.Waste, st.InputTotal, st.Inputs)
		if showForest {
			fmt.Println(p.Plan.Forest().Render())
		}
		fmt.Println(dmfb.Gantt(p.Plan.Schedule()))
	}
	fmt.Printf("total: %d cycles, %d input droplets, %d waste droplets, %d droplets emitted\n",
		res.TotalCycles, res.TotalInputs, res.TotalWaste, res.Emitted)

	if baseline {
		b, err := dmfb.Baseline(alg, target, engine.Mixers(), demand)
		if err != nil {
			return err
		}
		fmt.Printf("\nrepeated baseline (R%s): %d passes, Tr=%d cycles, Ir=%d inputs, Wr=%d waste, q=%d\n",
			alg, b.Passes, b.Cycles, b.Inputs, b.Waste, b.Storage)
		fmt.Printf("savings: %.1f%% time, %.1f%% reactant\n",
			pct(b.Cycles-res.TotalCycles, b.Cycles), pct64(b.Inputs-res.TotalInputs, b.Inputs))
	}
	return nil
}

func pct(delta, base int) float64     { return float64(delta) / float64(base) * 100 }
func pct64(delta, base int64) float64 { return float64(delta) / float64(base) * 100 }
