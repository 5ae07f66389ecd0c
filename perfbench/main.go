// Command perfbench is the repository's benchmark of the dmfbd serving
// stack. One process boots every dmfbd server of a workload on loopback
// listeners (configured as dmfbd configures them by default), drives it
// with closed-loop clients — one per CPU — for a measured window opened
// only once the servers reached steady state, checks every response against
// the paper's closed forms, and prints the end-to-end metrics. With
// --trace 1 it instead runs an untraced and a traced window, replays a
// prefix of the requests through each module's public calls, and prints
// the per-layer table and metrics; a workload's side phase (session-wal
// traffic for plan-hot, cluster-zipf for plan-cold) supplies the layers
// only that traffic reaches. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload plan-hot --seed 1 --seconds 30 --trace 0
//
// Everything runs in this one process: it starts no other process, and on
// exit every server, listener, heartbeat and WAL it opened is closed and
// its temporary directory removed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() { os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr)) }

// options configures one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	// setups is how many times the run sets the servers up; setup_s is
	// the median.
	setups int
	// quick shrinks every size so a run finishes in about a second; the
	// package's tests use it.
	quick bool
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{setups: setupsPerRun}
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadOrder, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the generated requests")
	fs.Float64Var(&o.seconds, "seconds", 30, "length of the measured window")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/perfbench", "directory for temporary state and span traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads()[o.workload]; !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n", strings.Join(workloadOrder, ", "))
		return 2
	}
	o.trace = traceFlag == 1
	res, err := run(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: outputs failed their checks")
		return 1
	}
	return 0
}

// setupsPerRun is how many times a run sets the servers up; setup_s is the
// median, so one slow boot does not move it.
const setupsPerRun = 3

// goldenPrefix is the number of leading requests sent one at a time during
// set-up; their canonical responses form the workload's digest and the
// layer pass replays them.
const goldenPrefix = 256

// sideLayers are the layers a side phase reports for the run.
var sideLayers = map[string]bool{"wal": true, "cluster": true, "artifact": true}

// tally accumulates what every set-up of a run sent and checked.
type tally struct {
	attempted, failed int64
	// overflows counts responses showing errShortPassStorage.
	overflows int64
	failures  []string
}

// phase sets w up o.setups times (the last set-up measured) and returns
// the measurement, the set-up times and the response digest. Digest
// disagreements and golden mismatches are added to t.failures.
func phase(w *workload, o options, clients int, out io.Writer, t *tally) (*measured, []float64, error) {
	var (
		setups  []float64
		digests []string
		m       *measured
	)
	for i := 0; i < o.setups; i++ {
		s, err := setUp(w, o, clients, out)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, s.setupTime.Seconds())
		digests = append(digests, s.digest)
		if i == o.setups-1 {
			m, err = s.measure(o, out)
		}
		cerr := s.tearDown()
		t.attempted += s.d.attempted.Load()
		t.failed += s.d.failed.Load()
		t.overflows += s.d.shortPassOverflows.Load()
		t.failures = append(t.failures, s.d.failures...)
		t.failures = append(t.failures, s.checkErrs...)
		if err := errors.Join(err, cerr); err != nil {
			return nil, nil, err
		}
	}
	for _, dg := range digests[1:] {
		if dg != digests[0] {
			t.failures = append(t.failures, fmt.Sprintf("%s: set-ups disagree on the response digest: %s vs %s", w.name, digests[0], dg))
		}
	}
	if want, ok := golden[w.name]; ok && o.seed == 1 && !o.quick && want != digests[0] {
		t.failures = append(t.failures, fmt.Sprintf("%s: golden digest mismatch for seed 1: got %s, want %s", w.name, digests[0], want))
	}
	fmt.Fprintf(out, "%s response digest (first %d requests): %s\n", w.name, o.prefixLen(), digests[0])
	return m, setups, nil
}

// run performs one benchmark run and returns its result line. Progress and
// tables go to out.
func run(o options, out io.Writer) (*result, error) {
	all := workloads()
	w := all[o.workload]
	if o.quick {
		for _, x := range all {
			x.shrink()
		}
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	clients := runtime.NumCPU()
	fmt.Fprintf(out, "perfbench %s (%s): seed %d, %d closed-loop clients, %d node(s), window %gs, trace %v\n",
		w.name, w.why, o.seed, clients, w.nodes, o.seconds, o.trace)

	var t tally
	m, setups, err := phase(w, o, clients, out, &t)
	if err != nil {
		return nil, err
	}
	if o.trace && w.sidePhase != "" {
		// Layers this workload never reaches are measured on the side
		// phase's traffic, set up once, for half the window.
		so := o
		so.setups, so.seconds = 1, o.seconds/2
		fmt.Fprintf(out, "\nside phase %s, window %gs, for the layers it alone exercises\n", w.sidePhase, so.seconds)
		sm, _, err := phase(all[w.sidePhase], so, clients, out, &t)
		if err != nil {
			return nil, err
		}
		for k, v := range sm.layer {
			if sideLayers[layerOf(k)] {
				m.layer[k] = v
			}
		}
	}

	for _, f := range t.failures {
		fmt.Fprintln(out, "FAIL:", f)
	}
	if t.overflows > 0 {
		fmt.Fprintf(out, "KNOWN DEFECT (not counted as failed): %d of %d responses: %v\n", t.overflows, t.attempted, errShortPassStorage)
	}
	correct := t.failed == 0 && len(t.failures) == 0
	if !correct && t.failed == 0 {
		t.failed = 1 // a digest or log mismatch fails the run even with every request answered
	}

	res := &result{Correct: correct, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	if o.trace {
		res.Metrics = m.layer
		return res, nil
	}
	setupS := median(setups)
	res.Metrics["throughput_rps"] = metric{m.rps, "1/s"}
	res.Metrics["p50_ms"] = metric{m.p50, "ms"}
	res.Metrics["p99_ms"] = metric{m.p99, "ms"}
	res.Metrics["success_rate"] = metric{1 - float64(t.failed)/float64(max(t.attempted, 1)), "ratio"}
	res.Metrics["cpu_ms_per_req"] = metric{m.cpuPerReq, "ms"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MiB"}
	res.Metrics["setup_s"] = metric{setupS, "s"}
	fmt.Fprintf(out, "setup_s %.3f s (median of %d set-ups: %s)\n", setupS, len(setups), fmtList(setups))
	printMetrics(out, res.Metrics)
	return res, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, ", ")
}

func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
