// Miniprep under scarce storage: demand-driven streaming across passes.
//
// A point-of-care scenario from the paper's introduction: confirmatory
// screening keeps asking for more droplets of the same mixture as earlier
// results come in. Here the One-Step Miniprep mixture (Ex.2 of Table 2,
// phenol : chloroform : isoamylalcohol = 128:123:5 on a scale of 256) is
// streamed on a chip with only three storage cells, so larger requests are
// split into multiple passes (the Table 4 mechanism), while the engine keeps
// a running timeline across requests.
package main

import (
	"fmt"
	"log"

	dmfb "repro"
)

func main() {
	var miniprep dmfb.Protocol
	for _, p := range dmfb.Protocols() {
		if p.Key == "Ex.2" {
			miniprep = p
		}
	}
	fmt.Printf("protocol: %s\nratio %s (d=%d)\n\n", miniprep.Name, miniprep.Ratio, miniprep.Ratio.Depth())

	engine, err := dmfb.NewEngine(dmfb.Config{
		Target:    miniprep.Ratio,
		Algorithm: dmfb.MM,
		Scheduler: dmfb.SRS,
		Storage:   3, // a very small chip
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine ready: %d mixers, 3 storage cells\n\n", engine.Mixers())

	// Demand arrives in waves as screening results come back.
	for round, want := range []int{4, 8, 16} {
		batch, err := engine.Request(want)
		if err != nil {
			log.Fatal(err)
		}
		res := batch.Result
		fmt.Printf("request %d: %d droplets -> %d pass(es) (D'=%d), cycles %d..%d, inputs %d, waste %d\n",
			round+1, want, len(res.Passes), res.PerPassDemand,
			batch.StartCycle, batch.StartCycle+res.TotalCycles-1, res.TotalInputs, res.TotalWaste)
		for _, p := range res.Passes {
			fmt.Printf("  pass at cycle %d: %d droplets, Tc=%d, q=%d (<= 3)\n",
				p.StartCycle+batch.StartCycle-1, p.Demand, p.Plan.Cycles, p.Storage)
		}
	}
	fmt.Printf("\ntotal: %d droplets planned over %d cycles\n", engine.Emitted(), engine.Elapsed())

	fmt.Println("\nemission timeline (cycle: droplets):")
	for _, e := range engine.Emissions() {
		fmt.Printf("  %4d: %d\n", e.Cycle, e.Count)
	}

	// What the same demand would have cost by repeating the mixing tree.
	baseline, err := dmfb.Baseline(dmfb.MM, miniprep.Ratio, engine.Mixers(), engine.Emitted())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrepeated baseline for %d droplets: %d cycles, %d inputs\n",
		engine.Emitted(), baseline.Cycles, baseline.Inputs)
}
