package main

import (
	"bytes"
	"io"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestGeneratorDeterministic pins the request generators: a seed yields a
// byte-identical sequence every time, and another seed a different one.
func TestGeneratorDeterministic(t *testing.T) {
	seq := func(w *workload, seed uint64) []byte {
		var b bytes.Buffer
		for i := uint64(0); i < 500; i++ {
			rq := w.gen(seed, i)
			b.WriteString(rq.Path)
			b.WriteByte(byte('0' + rq.Node))
			b.Write(rq.Body)
			b.WriteByte('\n')
		}
		return b.Bytes()
	}
	a, b := workloads(), workloads()
	for _, name := range workloadOrder {
		s1 := seq(a[name], 1)
		if !bytes.Equal(s1, seq(b[name], 1)) {
			t.Errorf("%s: seed 1 generated two different sequences", name)
		}
		if bytes.Equal(s1, seq(a[name], 2)) {
			t.Errorf("%s: seeds 1 and 2 generated the same sequence", name)
		}
	}
}

// TestRunLeavesNothing runs every workload end to end at a reduced size,
// traced so the layer pass runs too, and checks the outputs were correct
// and that nothing outlives the run: no goroutine (servers, listeners,
// heartbeats, publishes, client connections) and no temporary directory.
func TestRunLeavesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers")
	}
	before := runtime.NumGoroutine()
	workdir := t.TempDir()
	for _, name := range workloadOrder {
		res, err := run(options{workload: name, seed: 3, seconds: 0.3, trace: true, workdir: workdir, setups: 2, quick: true}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
		if _, ok := res.Metrics["server.handler_p50_ms"]; !ok {
			t.Errorf("%s: traced run reported no per-layer metrics", name)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines leaked:\n%s", n-before, buf[:runtime.Stack(buf, true)])
	}
	entries, err := os.ReadDir(workdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "traces" {
			t.Errorf("left behind %s in the work directory", e.Name())
		}
	}
}
