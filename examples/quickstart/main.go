// Quickstart: plan a stream of PCR master-mix droplets with the public API.
//
// The PCR master-mix (buffer, dNTPs, primers, template, optimase, water) is
// approximated as 2:1:1:1:1:1:9 on a scale of 16. We ask the engine for 20
// droplets with 5 on-chip storage units and print the plan — 11 cycles on 3
// mixers, matching Fig. 3 of the DAC 2014 paper.
package main

import (
	"fmt"
	"log"

	dmfb "repro"
)

func main() {
	target, err := dmfb.ParseRatio("2:1:1:1:1:1:9")
	if err != nil {
		log.Fatal(err)
	}

	engine, err := dmfb.NewEngine(dmfb.Config{
		Target:    target,
		Algorithm: dmfb.MM,  // base mixing tree: MinMix
		Scheduler: dmfb.SRS, // storage-frugal scheduling
		Storage:   5,        // five on-chip storage cells
		// Mixers: 0 -> use Mlb of the MM tree (3 for this ratio)
	})
	if err != nil {
		log.Fatal(err)
	}

	batch, err := engine.Request(20)
	if err != nil {
		log.Fatal(err)
	}
	res := batch.Result
	fmt.Printf("demand 20 droplets of %s on %d mixers:\n", target, engine.Mixers())
	fmt.Printf("  %d pass(es), %d cycles, %d input droplets, %d waste\n\n",
		len(res.Passes), res.TotalCycles, res.TotalInputs, res.TotalWaste)
	fmt.Println(dmfb.Gantt(res.Passes[0].Plan.Schedule()))

	// Compare against re-running the mixing tree 10 times.
	baseline, err := dmfb.Baseline(dmfb.MM, target, engine.Mixers(), 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repeated-baseline cost: %d cycles, %d input droplets\n", baseline.Cycles, baseline.Inputs)
	fmt.Printf("the streaming engine is %.1f%% faster and uses %.1f%% less reactant\n",
		100*float64(baseline.Cycles-res.TotalCycles)/float64(baseline.Cycles),
		100*float64(baseline.Inputs-res.TotalInputs)/float64(baseline.Inputs))
}
