// Command dilute plans droplet streams at a target concentration factor —
// the N=2 special case of the streaming engine (the dilution engine of the
// paper's reference [20]).
//
// Usage:
//
//	dilute -cf 0.22 -depth 6 -demand 32
//	dilute -num 3 -depth 4 -demand 16 -sched SRS -storage 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	dmfb "repro"
	"repro/internal/dilution"
	"repro/internal/gradient"
)

func main() { os.Exit(cliMain(os.Args[1:], os.Stderr)) }

// cliMain is the whole CLI minus process exit: it parses args on its own
// FlagSet and returns the exit status (0 ok, 1 runtime error, 2 usage), so
// tests can pin the exit-code contract without spawning a subprocess.
func cliMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("dilute", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cf      = fs.Float64("cf", 0, "desired concentration in (0,1); rounded to c/2^depth")
		num     = fs.Int64("num", 0, "CF numerator c (alternative to -cf)")
		depth   = fs.Int("depth", 4, "accuracy level d")
		demand  = fs.Int("demand", 16, "number of droplets")
		sched   = fs.String("sched", "MMS", "scheduler: MMS or SRS")
		storage = fs.Int("storage", 0, "storage units (0 = unlimited)")
		series  = fs.Int("gradient", 0, "plan a 2-fold serial gradient of N concentrations instead")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := run(*cf, *num, *depth, *demand, *sched, *storage, *series); err != nil {
		fmt.Fprintln(stderr, "dilute:", err)
		return 1
	}
	return 0
}

func run(cf float64, num int64, depth, demand int, schedName string, storage, series int) error {
	if series > 0 {
		steps, err := gradient.Serial(series, demand)
		if err != nil {
			return err
		}
		p, err := gradient.Build(steps, 0, dmfb.MMS)
		if err != nil {
			return err
		}
		fmt.Print(p.Format())
		return nil
	}

	var target dilution.Target
	var err error
	switch {
	case num > 0:
		target = dilution.Target{Num: num, Depth: depth}
		if _, err := target.Ratio(); err != nil {
			return err
		}
	case cf > 0:
		target, err = dmfb.DilutionFromFraction(cf, depth)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("give -cf or -num")
	}

	scheduler, err := dmfb.ParseScheduler(schedName)
	if err != nil {
		return err
	}

	engine, err := dmfb.NewDilutionEngine(target, dmfb.DilutionConfig{Scheduler: scheduler, Storage: storage})
	if err != nil {
		return err
	}
	fmt.Printf("target CF %d/%d = %.4f on %d mixer(s)\n",
		target.Num, int64(1)<<uint(target.Depth), target.CF(), engine.Mixers())
	b, err := engine.Request(demand)
	if err != nil {
		return err
	}
	res := b.Result
	fmt.Printf("plan: %d pass(es), %d cycles, %d inputs, %d waste, %d droplets\n",
		len(res.Passes), res.TotalCycles, res.TotalInputs, res.TotalWaste, res.Emitted)
	sample, buffer := engine.SampleUsage()
	fmt.Printf("consumed: %d sample + %d buffer droplets\n", sample, buffer)

	r, err := target.Ratio()
	if err != nil {
		return err
	}
	base, err := dmfb.Baseline(dmfb.MM, r, engine.Mixers(), demand)
	if err != nil {
		return err
	}
	fmt.Printf("repeated dilution tree: %d cycles, %d inputs (%.1f%% / %.1f%% saved)\n",
		base.Cycles, base.Inputs,
		100*float64(base.Cycles-res.TotalCycles)/float64(base.Cycles),
		100*float64(base.Inputs-res.TotalInputs)/float64(base.Inputs))
	return nil
}
