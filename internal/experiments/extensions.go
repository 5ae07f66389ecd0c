package experiments

import (
	"fmt"
	"strings"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/errormodel"
	"repro/internal/exec"
	"repro/internal/forest"
	"repro/internal/motion"
	"repro/internal/protocols"
	"repro/internal/ratio"
	"repro/internal/sched"
	"repro/internal/stream"
)

// Extension experiments beyond the paper's evaluation: the RSM roster
// completion (E1), the pool-persistent demand-driven mode (E2), concurrent
// droplet routing (E3) and volumetric error robustness (E4). These quantify
// the repository's additions using the same protocols and metrics as the
// paper.

// E1Row compares all four base algorithms on one protocol.
type E1Row struct {
	Key    string
	Inputs map[string]int64 // per algorithm: single-pass input droplets
	Forest map[string]int64 // per algorithm: D=32 forest input droplets
}

// E1AlgorithmRoster evaluates MM, RMA, MTCS and RSM on the Table 2
// protocols.
func E1AlgorithmRoster() ([]E1Row, error) {
	var rows []E1Row
	for _, p := range protocols.Table2() {
		row := E1Row{Key: p.Key, Inputs: map[string]int64{}, Forest: map[string]int64{}}
		for _, alg := range core.AllAlgorithms() {
			base, err := alg.Build(p.Ratio)
			if err != nil {
				return nil, err
			}
			row.Inputs[alg.String()] = base.Stats().InputTotal
			f, err := forest.Build(base, 32)
			if err != nil {
				return nil, err
			}
			row.Forest[alg.String()] = f.Stats().InputTotal
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatE1 renders the roster comparison.
func FormatE1(rows []E1Row) string {
	var b strings.Builder
	b.WriteString("E1: input droplets per algorithm (single pass | D=32 forest)\n")
	fmt.Fprintf(&b, "%-6s", "Ratio")
	for _, alg := range core.AllAlgorithms() {
		fmt.Fprintf(&b, " %14s", alg)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s", r.Key)
		for _, alg := range core.AllAlgorithms() {
			fmt.Fprintf(&b, " %14s", fmt.Sprintf("%d | %d", r.Inputs[alg.String()], r.Forest[alg.String()]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// E2Row compares one-shot and pool-persistent engines for a request pattern.
type E2Row struct {
	Pattern    []int
	OneShot    int64 // total inputs without pool persistence
	Persistent int64 // total inputs with pool persistence
	PeakPool   int   // largest pool between batches
}

// E2PersistentPool replays request patterns on the PCR master-mix engine.
func E2PersistentPool(patterns [][]int) ([]E2Row, error) {
	target := protocols.PCR16().Ratio
	var rows []E2Row
	for _, pattern := range patterns {
		row := E2Row{Pattern: pattern}
		for _, persist := range []bool{false, true} {
			e, err := core.New(core.Config{Target: target, PersistPool: persist})
			if err != nil {
				return nil, err
			}
			var total int64
			peak := 0
			for _, n := range pattern {
				b, err := e.Request(n)
				if err != nil {
					return nil, err
				}
				total += b.Result.TotalInputs
				if p := e.PoolSize(); p > peak {
					peak = p
				}
			}
			if persist {
				row.Persistent = total
				row.PeakPool = peak
			} else {
				row.OneShot = total
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatE2 renders the persistence comparison.
func FormatE2(rows []E2Row) string {
	var b strings.Builder
	b.WriteString("E2: pool persistence across requests (PCR master-mix, inputs used)\n")
	fmt.Fprintf(&b, "%-22s %10s %12s %10s %10s\n", "request pattern", "one-shot", "persistent", "saved", "peak pool")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %10d %12d %9.1f%% %10d\n",
			fmt.Sprint(r.Pattern), r.OneShot, r.Persistent,
			100*float64(r.OneShot-r.Persistent)/float64(r.OneShot), r.PeakPool)
	}
	return b.String()
}

// E3Row reports concurrent-routing compression for one demand.
type E3Row struct {
	Demand     int
	Serialized int
	Concurrent int
	Speedup    float64
}

// E3ConcurrentRouting routes PCR plans of growing demand concurrently.
func E3ConcurrentRouting(demands []int) ([]E3Row, error) {
	base, err := core.MM.Build(protocols.PCR16().Ratio)
	if err != nil {
		return nil, err
	}
	layout := chip.PCRLayout()
	var rows []E3Row
	for _, d := range demands {
		p, err := stream.BuildPlan(stream.Config{Base: base, Mixers: 3, Scheduler: stream.SRS}, d)
		if err != nil {
			return nil, err
		}
		plan, err := exec.Execute(p.Schedule(), layout)
		if err != nil {
			return nil, err
		}
		res, err := motion.RoutePlan(plan, layout)
		if err != nil {
			return nil, err
		}
		rows = append(rows, E3Row{
			Demand:     d,
			Serialized: res.Serialized,
			Concurrent: res.Makespan,
			Speedup:    res.Speedup(),
		})
	}
	return rows, nil
}

// FormatE3 renders the routing comparison.
func FormatE3(rows []E3Row) string {
	var b strings.Builder
	b.WriteString("E3: concurrent droplet routing (PCR, SRS, 3 mixers; micro-steps)\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %9s\n", "D", "serialized", "concurrent", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %12d %12d %8.2fx\n", r.Demand, r.Serialized, r.Concurrent, r.Speedup)
	}
	return b.String()
}

// E4Row reports volumetric robustness for one base algorithm.
type E4Row struct {
	Algorithm string
	MeanErr   float64
	P95Err    float64
	MaxVolDev float64 // worst-case |volume - 1|
}

// E4ErrorRobustness propagates a fixed physical error model through each
// algorithm's D=16 PCR forest.
func E4ErrorRobustness(r ratio.Ratio, p errormodel.Params) ([]E4Row, error) {
	var rows []E4Row
	for _, alg := range core.AllAlgorithms() {
		base, err := alg.Build(r)
		if err != nil {
			return nil, err
		}
		f, err := forest.Build(base, 16)
		if err != nil {
			return nil, err
		}
		rep, err := errormodel.Simulate(f, p)
		if err != nil {
			return nil, err
		}
		dev := rep.MaxVolume - 1
		if d := 1 - rep.MinVolume; d > dev {
			dev = d
		}
		rows = append(rows, E4Row{
			Algorithm: alg.String(),
			MeanErr:   rep.MeanErr,
			P95Err:    rep.P95Err,
			MaxVolDev: dev,
		})
	}
	return rows, nil
}

// FormatE4 renders the robustness comparison.
func FormatE4(rows []E4Row, p errormodel.Params) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E4: CF error under ±%.0f%% split imbalance, ±%.0f%% dispense error (D=16, %d trials)\n",
		100*p.SplitImbalance, 100*p.DispenseError, p.Trials)
	fmt.Fprintf(&b, "%-8s %12s %12s %14s\n", "alg", "mean CF err", "p95 CF err", "max vol dev")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %12.5f %12.5f %14.4f\n", r.Algorithm, r.MeanErr, r.P95Err, r.MaxVolDev)
	}
	return b.String()
}

// ScheduleQuality reports utilisation metrics for a schedule: how busy the
// mixers are and how much slack the storage track carries.
type ScheduleQuality struct {
	Utilization    float64 // busy mixer-cycles / (Tc * Mc)
	PeakStorage    int
	AvgStorage     float64
	IdleMixerSlots int
}

// Quality computes the metrics.
func Quality(s *sched.Schedule) ScheduleQuality {
	tasks := len(s.Tasks())
	total := s.Cycles * s.Mixers
	profile := sched.StorageProfile(s)
	sum := 0
	peak := 0
	for _, v := range profile {
		sum += v
		if v > peak {
			peak = v
		}
	}
	return ScheduleQuality{
		Utilization:    float64(tasks) / float64(total),
		PeakStorage:    peak,
		AvgStorage:     float64(sum) / float64(s.Cycles),
		IdleMixerSlots: total - tasks,
	}
}
