package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/plancache"
	"repro/internal/protocols"
	"repro/internal/synth"
)

// benchCall is one request a benchmark replays through the handler.
type benchCall struct {
	path string
	body []byte
}

// serveCall runs c through h in process and fails tb unless it answers 200.
func serveCall(tb testing.TB, h http.Handler, c benchCall) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(c.body)))
	if w.Code != http.StatusOK {
		tb.Fatalf("%s %s: %d %s", c.path, c.body, w.Code, w.Body)
	}
}

// BenchmarkColdPlanRequest replays cold plan requests through the dmfbd
// handler in process, with no network in between: distinct PaperDataset
// specs (demand 2..128, both schedulers, MM/RMA/MTCS bases) so every request
// misses the plan cache, a quarter of them storage-limited /v1/stream
// requests that run the D′ demand scan and a tenth error-aware. It is the
// cold planning path — decode, engine setup, packed build, schedule, audit,
// encode — isolated from the HTTP stack so it can be profiled. It
// also reports B/entry, the heap one plan-cache entry retains (see
// retainedPerEntry):
//
//	go test ./internal/server -run '^$' -bench ColdPlanRequest -benchmem -cpuprofile cpu.out
func BenchmarkColdPlanRequest(b *testing.B) {
	paper := synth.PaperDataset()
	rng := rand.New(rand.NewSource(1))
	calls := make([]benchCall, 4096)
	for i := range calls {
		req := PlanRequest{
			Ratio:     paper[rng.Intn(len(paper))].String(),
			Demand:    2 + rng.Intn(127),
			Scheduler: []string{"MMS", "SRS"}[rng.Intn(2)],
		}
		path := "/v1/plan"
		if rng.Float64() < 0.25 {
			path = "/v1/stream"
			req.Storage = []int{6, 8}[rng.Intn(2)]
		}
		if rng.Float64() < 0.10 {
			req.ErrorAware = true
			req.SplitImbalance = 0.05
		} else {
			req.Algorithm = []string{"MM", "RMA", "MTCS"}[rng.Intn(3)]
		}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		calls[i] = benchCall{path, body}
	}
	// A private cache smaller than the replay, so a spec is evicted long
	// before it comes round again.
	h := New(Config{PlanCache: plancache.New(64)}).Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveCall(b, h, calls[i%len(calls)])
	}
	b.StopTimer()
	b.ReportMetric(retainedPerEntry(func(h http.Handler, i int) { serveCall(b, h, calls[i%len(calls)]) }), "B/entry")
}

// hotPlanCalls are the plan requests of perfbench's plan-hot workload: the
// protocol ratios (Table 2 and PCR16) at demands 2, 8, 16, 32 and 64 under
// MMS and SRS, every one a stateless /v1/plan.
func hotPlanCalls(tb testing.TB) []benchCall {
	var ratios []string
	for _, p := range protocols.Table2() {
		ratios = append(ratios, p.Ratio.String())
	}
	ratios = append(ratios, protocols.PCR16().Ratio.String())
	var calls []benchCall
	for _, r := range ratios {
		for _, d := range []int{2, 8, 16, 32, 64} {
			for _, sch := range []string{"MMS", "SRS"} {
				body, err := json.Marshal(PlanRequest{Ratio: r, Demand: d, Scheduler: sch})
				if err != nil {
					tb.Fatal(err)
				}
				calls = append(calls, benchCall{"/v1/plan", body})
			}
		}
	}
	return calls
}

// warmHotHandler returns a handler over a 1024-entry plan cache that has
// served every call once, so each later call is a plan-cache hit.
func warmHotHandler(tb testing.TB, calls []benchCall) http.Handler {
	h := New(Config{PlanCache: plancache.New(1024)}).Handler()
	for _, c := range calls {
		serveCall(tb, h, c)
	}
	return h
}

// BenchmarkHotPlanRequest is the in-process twin of perfbench's plan-hot:
// protocol specs replayed through the dmfbd handler against a warm plan
// cache, so it measures the per-request serving cost (decode, spec keys,
// engine setup on a cached base graph, the cache hit, encode) without the
// HTTP client and loopback.
//
//	go test ./internal/server -run '^$' -bench HotPlanRequest -benchmem -cpuprofile cpu.out
func BenchmarkHotPlanRequest(b *testing.B) {
	calls := hotPlanCalls(b)
	h := warmHotHandler(b, calls)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveCall(b, h, calls[i%len(calls)])
	}
}

// retainedPerEntry fills a fresh server's 256-entry plan cache by replaying
// requests through serve, then returns the live heap the full cache holds
// per entry: the heap after a GC, less the heap after purging the cache and
// collecting again, over the entry count. It counts each entry's whole
// retained plan, its key and LRU node, and the few scan entries the
// storage-limited requests leave.
func retainedPerEntry(serve func(h http.Handler, i int)) float64 {
	cache := plancache.New(256)
	h := New(Config{PlanCache: cache}).Handler()
	for i := 0; cache.Stats().Size < cache.Stats().Capacity; i++ {
		serve(h, i)
	}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	full := live()
	entries := cache.Stats().Size
	cache.Purge()
	empty := live()
	runtime.KeepAlive(h)
	return float64(int64(full)-int64(empty)) / float64(entries)
}

// TestHotPlanRequestAllocs pins the allocations of BenchmarkHotPlanRequest's
// warm request, averaged over every plan-hot spec. Before the ratio carried
// its colon form and the spec rendered its key once, it was 67.
func TestHotPlanRequestAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts vary under the race detector")
	}
	calls := hotPlanCalls(t)
	h := warmHotHandler(t, calls)
	perRun := testing.AllocsPerRun(20, func() {
		for _, c := range calls {
			serveCall(t, h, c)
		}
	})
	// The fraction over the whole count is the handler's pooled buffers
	// and maps settling; it stays well under one.
	if perReq := perRun / float64(len(calls)); perReq >= 52 {
		t.Fatalf("a warm plan request allocates %.2f objects, want 51", perReq)
	}
}
