// Command chipsim simulates the PCR master-mix engine at the chip level:
// it plans a droplet demand, binds the schedule to the Fig. 5-style
// floorplan, and reports the full droplet-transport plan with its
// electrode-actuation total, optionally after placement optimization.
//
// Usage:
//
//	chipsim -demand 20 -sched SRS
//	chipsim -demand 32 -optimize -moves
//	chipsim -demand 20 -faults 0.05 -seed 7
//	chipsim -demand 20 -deadmixer M3:2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	dmfb "repro"
	"repro/internal/contam"
	"repro/internal/fluidsim"
	"repro/internal/obs"
	"repro/internal/pins"
)

func main() { os.Exit(cliMain(os.Args[1:], os.Stderr)) }

// cliMain is the whole CLI minus process exit: it parses args on its own
// FlagSet and returns the exit status (0 ok, 1 runtime error, 2 usage), so
// tests can pin the exit-code and tracefile-atomicity contracts in-process.
func cliMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("chipsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		demand     = fs.Int("demand", 20, "number of target droplets")
		schedStr   = fs.String("sched", "SRS", "forest scheduler: MMS or SRS")
		optimize   = fs.Bool("optimize", false, "optimize module placement for the traffic")
		moves      = fs.Bool("moves", false, "print every droplet movement")
		heatmap    = fs.Bool("heatmap", false, "replay the plan and print per-electrode wear")
		routing    = fs.Bool("route", false, "route all droplets concurrently under fluidic constraints")
		pinsFlag   = fs.Bool("pins", false, "derive a broadcast pin assignment from the routed plan")
		contamFlag = fs.Bool("contam", false, "report cross-contamination exposure of the routed plan")
		trace      = fs.Int("trace", 0, "animate the first N moves step by step")
		faultRate  = fs.Float64("faults", 0, "execute cyberphysically with this per-event fault rate (0 disables)")
		seed       = fs.Int64("seed", 1, "fault-injection seed")
		deadMixer  = fs.String("deadmixer", "", "script a mixer death as NAME:CYCLE (e.g. M3:2); implies cyberphysical execution")
		budget     = fs.Int("budget", 0, "per-run recovery budget in extra cycles (0 = unbounded)")
		tracePath  = fs.String("tracefile", "", "write a JSONL structured event trace to this file")
		metrics    = fs.Bool("metrics", false, "dump the metrics registry to stderr on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	finish, err := obs.EnableCLI(*tracePath, *metrics, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "chipsim:", err)
		return 1
	}
	err = run(*demand, *schedStr, *optimize, *moves, *heatmap, *routing, *pinsFlag, *contamFlag, *trace,
		*faultRate, *seed, *deadMixer, *budget)
	if ferr := finish(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(stderr, "chipsim:", err)
		return 1
	}
	return 0
}

// runFaults executes the schedule cycle-by-cycle under fault injection and
// prints the recovery report (the -faults / -deadmixer mode).
func runFaults(schedule *dmfb.Schedule, layout *dmfb.Layout, rate float64, seed int64, deadMixer string, budget int) error {
	params := dmfb.FaultRate(seed, rate)
	if deadMixer != "" {
		name, cycleStr, ok := strings.Cut(deadMixer, ":")
		if !ok {
			return fmt.Errorf("bad -deadmixer %q (want NAME:CYCLE)", deadMixer)
		}
		cycle, err := strconv.Atoi(cycleStr)
		if err != nil {
			return fmt.Errorf("bad -deadmixer cycle %q: %v", cycleStr, err)
		}
		params.DeadMixers = map[string]int{name: cycle}
	}
	inj, err := dmfb.NewFaultInjector(params)
	if err != nil {
		return err
	}
	fmt.Printf("\ncyberphysical execution: fault rate %g, seed %d\n", rate, seed)
	rep, err := dmfb.RunWithFaults(schedule, layout, inj, dmfb.RecoveryPolicy{RecoveryBudget: budget})
	if rep != nil {
		fmt.Println(rep)
	}
	return err
}

func run(demand int, schedStr string, optimize, moves, heatmap, routing, pinsFlag, contamFlag bool, trace int,
	faultRate float64, seed int64, deadMixer string, budget int) error {
	scheduler, err := dmfb.ParseScheduler(schedStr)
	if err != nil {
		return err
	}

	target := dmfb.PCR16().Ratio
	base, err := dmfb.BuildGraph(dmfb.MM, target)
	if err != nil {
		return err
	}
	f, err := dmfb.BuildForest(base, demand)
	if err != nil {
		return err
	}
	var schedule *dmfb.Schedule
	if scheduler == dmfb.MMS {
		schedule, err = dmfb.ScheduleMMS(f, 3)
	} else {
		schedule, err = dmfb.ScheduleSRS(f, 3)
	}
	if err != nil {
		return err
	}

	layout := dmfb.PCRLayout()
	plan, err := dmfb.Execute(schedule, layout)
	if err != nil {
		return err
	}
	fmt.Printf("PCR master-mix %s, D=%d, %s on 3 mixers: Tc=%d, q=%d\n",
		target, demand, schedStr, schedule.Cycles, dmfb.StorageUnits(schedule))
	fmt.Println(layout.Render())
	fmt.Printf("electrode actuations: %d over %d droplet moves, %d storage cells used\n",
		plan.TotalCost, len(plan.Moves), plan.StorageCellsUsed())

	if faultRate > 0 || deadMixer != "" {
		if err := runFaults(schedule, layout, faultRate, seed, deadMixer, budget); err != nil {
			return err
		}
	}

	if optimize {
		matrix, err := dmfb.TransportMatrixFor(layout)
		if err != nil {
			return err
		}
		opt, cost, err := dmfb.OptimizePlacement(layout, plan.Flow, matrix, 800, 1)
		if err != nil {
			return err
		}
		optPlan, err := dmfb.Execute(schedule, opt)
		if err != nil {
			return err
		}
		fmt.Printf("\noptimized placement (flow-weighted cost %d):\n", cost)
		fmt.Println(opt.Render())
		fmt.Printf("electrode actuations after optimization: %d\n", optPlan.TotalCost)
		plan = optPlan
		layout = opt
	}

	if moves {
		fmt.Println("\ncycle  purpose   from -> to   (cost)")
		for _, m := range plan.Moves {
			fmt.Printf("%5d  %-8s %5s -> %-5s (%d)\n", m.Cycle, m.Purpose, m.From, m.To, m.Cost)
		}
	}

	if heatmap {
		wear, err := dmfb.Replay(plan, layout)
		if err != nil {
			return err
		}
		fmt.Printf("\nelectrode wear (hottest: (%d,%d) with %d actuations):\n",
			wear.Hottest.X, wear.Hottest.Y, wear.MaxActuations)
		fmt.Println(wear.Heatmap(layout))
	}

	if routing || pinsFlag || contamFlag {
		res, err := dmfb.RouteConcurrently(plan, layout)
		if err != nil {
			return err
		}
		if pinsFlag {
			a, err := pins.Broadcast(res, layout)
			if err != nil {
				return err
			}
			fmt.Printf("broadcast addressing: %d electrodes -> %d control pins (%.2fx reduction)\n",
				a.Electrodes, a.Pins, a.Reduction())
		}
		if contamFlag {
			rep := contam.Analyze(res)
			fmt.Printf("contamination: %d of %d route cells shared across compositions, %d residue transitions (worst cell (%d,%d): %d)\n",
				rep.SharedCells, rep.Cells, rep.Transitions, rep.WorstCell.X, rep.WorstCell.Y, rep.WorstTransitions)
		}
		if routing {
			fmt.Printf("\nconcurrent routing: %d micro-steps vs %d serialized (%.2fx speedup)\n",
				res.Makespan, res.Serialized, res.Speedup())
			for _, c := range res.Cycles {
				fmt.Printf("  cycle %2d: %2d droplets in %2d micro-steps (serialized %d)\n",
					c.Cycle, len(c.Routes), c.Makespan, c.Serialized)
			}
		}
	}

	if trace > 0 {
		frames, err := fluidsim.Trace(plan, layout, trace)
		if err != nil {
			return err
		}
		for _, f := range frames {
			fmt.Println(f)
		}
	}

	// Baseline comparison as in §5.
	oms, err := dmfb.ScheduleOMS(base, 3)
	if err != nil {
		return err
	}
	basePlan, err := dmfb.Execute(oms, dmfb.PCRLayout())
	if err != nil {
		return err
	}
	passes := (demand + 1) / 2
	fmt.Printf("\nrepeated MM baseline: %d passes x %d = %d actuations (engine: %d, %.2fx better)\n",
		passes, basePlan.TotalCost, passes*basePlan.TotalCost, plan.TotalCost,
		float64(passes*basePlan.TotalCost)/float64(plan.TotalCost))
	return nil
}
