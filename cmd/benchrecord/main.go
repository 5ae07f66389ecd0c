// Command benchrecord summarises `go test -bench` output as one JSON
// record: for every benchmark, the median, min and max of each reported
// metric (ns/op, B/op, allocs/op, B/entry, ...) over its runs, plus the Go
// version, GOMAXPROCS and CPU model they ran on. `make bench-record PR=N`
// pipes the committed stage and end-to-end benchmarks through it into
// BENCH_N.json.
//
// With -check it writes no record: it gates the benchmarks on stdin
// against a committed one instead, failing unless every benchmark of
// either is in both and each run's allocs/op lies within the record's
// min–max. ns/op is not gated. `make bench-gate` runs it against the
// newest BENCH_*.json.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -count 5 ./internal/core | benchrecord -pr <n> -commit <rev>
//	go test -run '^$' -bench . -benchmem -count 1 ./internal/core | benchrecord -check BENCH_<n>.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Record is the whole file.
type Record struct {
	PR         int         `json:"pr"`
	Commit     string      `json:"commit"`
	Go         string      `json:"go"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	CPU        string      `json:"cpu"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark summarises the runs of one benchmark.
type Benchmark struct {
	Package string `json:"package"`
	Name    string `json:"name"`
	Runs    int    `json:"runs"`
	// Metrics maps a unit to its summary over the runs.
	Metrics map[string]Summary `json:"metrics"`
}

// Summary is one metric's median, min and max over a benchmark's runs.
type Summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func main() {
	pr := flag.Int("pr", 0, "the change the record belongs to")
	commit := flag.String("commit", "", "the commit the benchmarks ran on")
	check := flag.String("check", "", "gate allocs/op against this committed record instead of writing one")
	flag.Parse()
	rec, err := parse(os.Stdin)
	if err == nil && *check != "" {
		err = gateFile(rec, *check)
		if err == nil {
			fmt.Printf("benchrecord: allocs/op of %d benchmarks within %s\n", len(rec.Benchmarks), *check)
			return
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrecord:", err)
		os.Exit(1)
	}
	rec.PR, rec.Commit, rec.Go, rec.GOMAXPROCS = *pr, *commit, runtime.Version(), runtime.GOMAXPROCS(0)
	out, _ := json.MarshalIndent(rec, "", "  ") // plain fields: Marshal cannot fail
	os.Stdout.Write(append(out, '\n'))
}

// parse reads benchmark result lines, grouping runs by package and name in
// the order benchmarks first appear. A FAIL line is an error: a record must
// not hide a benchmark that broke.
func parse(r io.Reader) (*Record, error) {
	rec := &Record{}
	values := map[string]map[string][]float64{} // benchmark key -> unit -> runs
	var keys []string
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rec.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "FAIL"), strings.HasPrefix(line, "--- FAIL"):
			return nil, fmt.Errorf("benchmark run failed: %s", line)
		case strings.HasPrefix(line, "Benchmark"):
			f := strings.Fields(line)
			if len(f) < 4 || len(f)%2 != 0 {
				continue // a benchmark's own log line
			}
			name := f[0]
			if i := strings.LastIndexByte(name, '-'); i > 0 {
				name = name[:i] // the GOMAXPROCS suffix
			}
			key := pkg + "\x00" + name
			if values[key] == nil {
				values[key] = map[string][]float64{}
				keys = append(keys, key)
				rec.Benchmarks = append(rec.Benchmarks, Benchmark{Package: pkg, Name: name, Metrics: map[string]Summary{}})
			}
			for i := 2; i < len(f); i += 2 {
				v, err := strconv.ParseFloat(f[i], 64)
				if err != nil {
					return nil, fmt.Errorf("%s: metric %q: %v", name, f[i+1], err)
				}
				values[key][f[i+1]] = append(values[key][f[i+1]], v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i, key := range keys {
		b := &rec.Benchmarks[i]
		for unit, runs := range values[key] {
			slices.Sort(runs)
			b.Runs = max(b.Runs, len(runs))
			m := len(runs) / 2
			med := runs[m]
			if len(runs)%2 == 0 {
				med = (runs[m-1] + runs[m]) / 2
			}
			b.Metrics[unit] = Summary{Median: med, Min: runs[0], Max: runs[len(runs)-1]}
		}
	}
	return rec, nil
}

// gateFile gates got against the record committed at path (gate).
func gateFile(got *Record, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var want Record
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if err := gate(got, &want); err != nil {
		return fmt.Errorf("allocs/op outside %s:\n%w", path, err)
	}
	return nil
}

// gate reports every benchmark of got or want missing from the other, and
// every benchmark whose allocs/op runs in got leave want's min–max.
func gate(got, want *Record) error {
	key := func(b *Benchmark) string { return b.Package + " " + b.Name }
	recorded := map[string]*Benchmark{}
	for i := range want.Benchmarks {
		recorded[key(&want.Benchmarks[i])] = &want.Benchmarks[i]
	}
	var errs []error
	for i := range got.Benchmarks {
		b := &got.Benchmarks[i]
		w, ok := recorded[key(b)]
		if !ok {
			errs = append(errs, fmt.Errorf("%s: not in the record", key(b)))
			continue
		}
		delete(recorded, key(b))
		g, gok := b.Metrics["allocs/op"]
		r, rok := w.Metrics["allocs/op"]
		switch {
		case !gok || !rok:
			errs = append(errs, fmt.Errorf("%s: no allocs/op (run %v, recorded %v)", key(b), gok, rok))
		case g.Min < r.Min || g.Max > r.Max:
			errs = append(errs, fmt.Errorf("%s: allocs/op %g–%g, recorded %g–%g", key(b), g.Min, g.Max, r.Min, r.Max))
		}
	}
	for i := range want.Benchmarks {
		if k := key(&want.Benchmarks[i]); recorded[k] != nil {
			errs = append(errs, fmt.Errorf("%s: recorded but not run", k))
		}
	}
	return errors.Join(errs...)
}
