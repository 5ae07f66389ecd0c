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
	"repro/internal/synth"
)

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
	type call struct {
		path string
		body []byte
	}
	calls := make([]call, 4096)
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
		calls[i] = call{path, body}
	}
	serve := func(h http.Handler, c call) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(c.body)))
		if w.Code != http.StatusOK {
			b.Fatalf("%s %s: %d %s", c.path, c.body, w.Code, w.Body)
		}
	}
	// A private cache smaller than the replay, so a spec is evicted long
	// before it comes round again.
	h := New(Config{PlanCache: plancache.New(64)}).Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(h, calls[i%len(calls)])
	}
	b.StopTimer()
	b.ReportMetric(retainedPerEntry(func(h http.Handler, i int) { serve(h, calls[i%len(calls)]) }), "B/entry")
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
