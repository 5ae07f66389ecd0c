// Command benchplan measures the packed planning kernel — arena forest
// construction, the allocation-free MMS/SRS scheduler, the warm end-to-end
// plan request and the incremental single-pass demand scan — and writes
// the numbers to a JSON record (results/bench_plan_packed.json). The
// planner's output is pinned by TestPlannerGolden, not here;
// results/bench_plan.json keeps the recorded legacy-vs-packed comparison
// of EXPERIMENTS.md §E10, which can no longer be rerun.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/plancache"
	"repro/internal/ratio"
	"repro/internal/sched"
	"repro/internal/stream"
)

type measurement struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"iterations"`
	MsPerOp     float64 `json:"ms_per_op"`
}

type record struct {
	Generated  string                 `json:"generated"`
	Ratio      string                 `json:"ratio"`
	Benchmarks map[string]measurement `json:"benchmarks"`
}

type workload struct {
	name string
	op   func() error
}

func measure(op func() error) measurement {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				b.Fatal(err)
			}
		}
	})
	return measurement{
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		N:           r.N,
		MsPerOp:     float64(r.NsPerOp()) / 1e6,
	}
}

func main() {
	out := flag.String("out", "results/bench_plan_packed.json", "output JSON path")
	smoke := flag.Bool("smoke", false, "run each workload once; write nothing")
	flag.Parse()

	target := ratio.MustParse("2:1:1:1:1:1:9")
	g, err := minmix.Build(target)
	if err != nil {
		log.Fatal(err)
	}
	builder := forest.NewPackedBuilder(g)
	kernel := &sched.Kernel{}
	pf200, err := forest.BuildPacked(forest.NewPackedBuilder(g), g, 200)
	if err != nil {
		log.Fatal(err)
	}
	scanCfg := stream.Config{Base: g, Mixers: 4, Storage: 4, Scheduler: stream.SRS}
	const scanMax = 200
	coreCfg := core.Config{Target: target, Algorithm: core.MM, Scheduler: stream.SRS}

	var workloads []workload
	for _, d := range []int{20, 200} {
		workloads = append(workloads, workload{fmt.Sprintf("forest_build_packed_%d", d), func() error {
			_, err := forest.BuildPacked(builder, g, d)
			return err
		}})
	}
	workloads = append(workloads,
		workload{"mms_packed_200", func() error { return kernel.MMS(pf200, 4) }},
		workload{"srs_packed_200", func() error { return kernel.SRS(pf200, 4) }},
		// A fresh stateless engine plus Request(20) with warm caches: the
		// per-request path dmfbd runs.
		workload{"warm_plan_request", func() error {
			e, err := core.New(coreCfg)
			if err != nil {
				return err
			}
			_, err = e.Request(20)
			return err
		}},
		// Both caches are purged per iteration so the row measures a cold
		// scan's compute, not a memo hit (the serving layer's warm scan is
		// a zero-allocation map lookup; TestDemandScanMemo pins it).
		workload{"max_single_pass_demand_packed", func() error {
			plancache.Default().Purge()
			stream.PurgeScanMemo()
			_, err := stream.MaxSinglePassDemand(scanCfg, scanMax)
			return err
		}},
	)

	if *smoke {
		for _, w := range workloads {
			if err := w.op(); err != nil {
				log.Fatalf("%s: %v", w.name, err)
			}
		}
		fmt.Printf("bench-plan smoke: %d workloads ran once\n", len(workloads))
		return
	}

	rec := record{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Ratio:      target.String(),
		Benchmarks: map[string]measurement{},
	}
	for _, w := range workloads {
		m := measure(w.op)
		rec.Benchmarks[w.name] = m
		fmt.Printf("%-30s %9d ns %6d allocs\n", w.name+":", m.NsPerOp, m.AllocsPerOp)
	}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		log.Fatal(err)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}
