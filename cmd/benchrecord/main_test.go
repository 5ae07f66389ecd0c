package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/server
cpu: Example CPU @ 2.00GHz
BenchmarkColdPlanRequest-2   	    5000	     86542 ns/op	      5691 B/entry	   34369 B/op	      92 allocs/op
BenchmarkColdPlanRequest-2   	    5000	     75263 ns/op	      5752 B/entry	   34176 B/op	      91 allocs/op
BenchmarkColdPlanRequest-2   	    5000	     79358 ns/op	      5705 B/entry	   34345 B/op	      91 allocs/op
PASS
ok  	repro/internal/server	1.376s
pkg: repro/internal/core
BenchmarkPersistentRequest/history=1000-2         	    2000	     36196 ns/op	   47384 B/op	      98 allocs/op
BenchmarkPersistentRequest/history=1000-2         	    2000	     34538 ns/op	   47384 B/op	      96 allocs/op
PASS
`

func TestParse(t *testing.T) {
	rec, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rec.CPU != "Example CPU @ 2.00GHz" || len(rec.Benchmarks) != 2 {
		t.Fatalf("cpu %q, %d benchmarks", rec.CPU, len(rec.Benchmarks))
	}
	cold := rec.Benchmarks[0]
	if cold.Package != "repro/internal/server" || cold.Name != "BenchmarkColdPlanRequest" || cold.Runs != 3 {
		t.Fatalf("first benchmark %+v", cold)
	}
	if got := cold.Metrics["ns/op"]; got != (Summary{Median: 79358, Min: 75263, Max: 86542}) {
		t.Fatalf("ns/op %+v", got)
	}
	if got := cold.Metrics["B/entry"]; got != (Summary{Median: 5705, Min: 5691, Max: 5752}) {
		t.Fatalf("B/entry %+v", got)
	}
	persist := rec.Benchmarks[1]
	if persist.Package != "repro/internal/core" || persist.Name != "BenchmarkPersistentRequest/history=1000" {
		t.Fatalf("second benchmark %+v", persist)
	}
	if got := persist.Metrics["allocs/op"]; got != (Summary{Median: 97, Min: 96, Max: 98}) {
		t.Fatalf("allocs/op %+v (an even count's median is the middle pair's mean)", got)
	}
}

func TestParseRefusesFailure(t *testing.T) {
	if _, err := parse(strings.NewReader(sample + "--- FAIL: BenchmarkKernel\nFAIL\n")); err == nil {
		t.Fatal("a failed benchmark run parsed")
	}
}

// TestGate gates a parsed run against records: the run's own record
// passes, and a record doctored to another allocs/op range, or missing a
// benchmark the run has, fails the gate naming the benchmark.
func TestGate(t *testing.T) {
	run, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	same, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if err := gate(run, same); err != nil {
		t.Fatalf("a run fails the gate of its own record: %v", err)
	}
	doctored, _ := parse(strings.NewReader(sample))
	doctored.Benchmarks[0].Metrics["allocs/op"] = Summary{Median: 88, Min: 88, Max: 88}
	if err := gate(run, doctored); err == nil || !strings.Contains(err.Error(), "BenchmarkColdPlanRequest: allocs/op 91–92, recorded 88–88") {
		t.Fatalf("doctored allocs/op: gate error %v", err)
	}
	missing, _ := parse(strings.NewReader(sample))
	missing.Benchmarks = missing.Benchmarks[:1]
	if err := gate(run, missing); err == nil || !strings.Contains(err.Error(), "BenchmarkPersistentRequest/history=1000: not in the record") {
		t.Fatalf("benchmark missing from the record: gate error %v", err)
	}
	if err := gate(missing, run); err == nil || !strings.Contains(err.Error(), "BenchmarkPersistentRequest/history=1000: recorded but not run") {
		t.Fatalf("recorded benchmark not run: gate error %v", err)
	}
}
