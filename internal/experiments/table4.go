package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/mixgraph"
	"repro/internal/parallel"
	"repro/internal/plancache"
	"repro/internal/protocols"
	"repro/internal/stream"
)

// Table4Cell is one storage/accuracy/demand cell of Table 4: the number of
// passes and the aggregate cycle and waste cost of meeting the demand.
type Table4Cell struct {
	Depth   int // accuracy level d
	Storage int // storage budget q'
	Demand  int // droplet demand D
	Passes  int
	Cycles  int
	Waste   int64
}

// Table4Config mirrors the paper's sweep: the PCR master-mix on three
// mixers, d in {4,5,6}, q' in {3,5,7}, D in {2,16,20,32}, scheduled by SRS.
type Table4Config struct {
	Depths   []int
	Storages []int
	Demands  []int
	Mixers   int
}

// DefaultTable4Config returns the paper's parameter grid.
func DefaultTable4Config() Table4Config {
	return Table4Config{
		Depths:   []int{4, 5, 6},
		Storages: []int{3, 5, 7},
		Demands:  []int{2, 16, 20, 32},
		Mixers:   3,
	}
}

// Table4 runs the storage-constrained PCR streaming sweep. The (depth,
// storage, demand) grid is flattened and evaluated cell-by-cell on a
// GOMAXPROCS-sized worker pool; cells come back in the paper's nesting
// order (depth, then storage, then demand), planned through one cache of
// the sweep's own.
func Table4(cfg Table4Config) ([]Table4Cell, error) {
	type job struct {
		depth, storage, demand int
		base                   *mixgraph.Graph
	}
	var jobs []job
	for _, d := range cfg.Depths {
		p, err := protocols.PCRAtDepth(d)
		if err != nil {
			return nil, err
		}
		base, err := core.MM.Build(p.Ratio)
		if err != nil {
			return nil, err
		}
		for _, q := range cfg.Storages {
			for _, demand := range cfg.Demands {
				jobs = append(jobs, job{depth: d, storage: q, demand: demand, base: base})
			}
		}
	}
	cache := plancache.New(plancache.DefaultCapacity)
	return parallel.Map(jobs, func(_ int, j job) (Table4Cell, error) {
		res, err := stream.Run(stream.Config{
			Base:      j.base,
			Mixers:    cfg.Mixers,
			Storage:   j.storage,
			Scheduler: stream.SRS,
			Cache:     cache,
		}, j.demand)
		if err != nil {
			return Table4Cell{}, fmt.Errorf("experiments: table4 d=%d q=%d D=%d: %w", j.depth, j.storage, j.demand, err)
		}
		return Table4Cell{
			Depth:   j.depth,
			Storage: j.storage,
			Demand:  j.demand,
			Passes:  len(res.Passes),
			Cycles:  res.TotalCycles,
			Waste:   res.TotalWaste,
		}, nil
	})
}

// FormatTable4 renders the sweep in the paper's layout: demands as rows,
// (d, q') combinations as columns, cells as "passes (cycles, waste)".
func FormatTable4(cells []Table4Cell, cfg Table4Config) string {
	index := map[[3]int]Table4Cell{}
	for _, c := range cells {
		index[[3]int{c.Depth, c.Storage, c.Demand}] = c
	}
	var b strings.Builder
	b.WriteString("PCR master-mix streaming: passes (total cycles, total waste); SRS, 3 mixers\n")
	fmt.Fprintf(&b, "%-5s", "D")
	for _, d := range cfg.Depths {
		for _, q := range cfg.Storages {
			fmt.Fprintf(&b, " %12s", fmt.Sprintf("d=%d,q'=%d", d, q))
		}
	}
	b.WriteByte('\n')
	for _, demand := range cfg.Demands {
		fmt.Fprintf(&b, "%-5d", demand)
		for _, d := range cfg.Depths {
			for _, q := range cfg.Storages {
				c, ok := index[[3]int{d, q, demand}]
				if !ok {
					fmt.Fprintf(&b, " %12s", "-")
					continue
				}
				fmt.Fprintf(&b, " %12s", fmt.Sprintf("%d (%d,%d)", c.Passes, c.Cycles, c.Waste))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSVTable4 renders the sweep as CSV.
func CSVTable4(cells []Table4Cell) string {
	var b strings.Builder
	b.WriteString("depth,storage,demand,passes,cycles,waste\n")
	for _, c := range cells {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%d\n", c.Depth, c.Storage, c.Demand, c.Passes, c.Cycles, c.Waste)
	}
	return b.String()
}
