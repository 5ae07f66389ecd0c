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
