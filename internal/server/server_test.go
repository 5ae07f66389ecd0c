package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cancel"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/ratio"
)

// newTestServer starts an httptest server around a fresh serving core.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and decodes the JSON response into out (when
// non-nil), returning the status code.
func post(t *testing.T, url string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	}
	return resp.StatusCode
}

func TestPlanEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp PlanResponse
	code := post(t, ts.URL+"/v1/plan", PlanRequest{Ratio: "2:1:1:1:1:1:9", Demand: 20, Scheduler: "SRS"}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if resp.Emitted < 20 {
		t.Errorf("emitted = %d, want >= 20", resp.Emitted)
	}
	if len(resp.Passes) == 0 || resp.TotalCycles <= 0 || resp.TotalInputs <= 0 {
		t.Errorf("degenerate plan: %+v", resp)
	}
	if resp.Scheduler != "SRS" || resp.Algorithm != "MM" {
		t.Errorf("echoed config = %s/%s, want MM/SRS", resp.Algorithm, resp.Scheduler)
	}
	if resp.StartCycle != 1 {
		t.Errorf("stateless start_cycle = %d, want 1", resp.StartCycle)
	}
}

func TestPlanValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  any
		want int
	}{
		{"missing ratio", PlanRequest{Demand: 4}, http.StatusBadRequest},
		{"bad ratio", PlanRequest{Ratio: "1:2x", Demand: 4}, http.StatusBadRequest},
		{"non power of two", PlanRequest{Ratio: "1:2", Demand: 4}, http.StatusBadRequest},
		{"zero demand", PlanRequest{Ratio: "1:3", Demand: 0}, http.StatusBadRequest},
		{"negative mixers", PlanRequest{Ratio: "1:3", Demand: 4, Mixers: -1}, http.StatusBadRequest},
		{"bad algorithm", PlanRequest{Ratio: "1:3", Demand: 4, Algorithm: "XYZ"}, http.StatusBadRequest},
		{"bad scheduler", PlanRequest{Ratio: "1:3", Demand: 4, Scheduler: "XYZ"}, http.StatusBadRequest},
		{"unknown field", map[string]any{"ratio": "1:3", "demand": 4, "bogus": true}, http.StatusBadRequest},
		{"storage too small", PlanRequest{Ratio: "1:1:1:1:1:1:1:1:1:1:1:1:1:1:1:1", Demand: 4, Storage: 1, Mixers: 4}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, endpoint := range []string{"/v1/plan", "/v1/stream"} {
				var e errorResponse
				if code := post(t, ts.URL+endpoint, tc.req, &e); code != tc.want {
					t.Fatalf("%s: status = %d (error %q), want %d", endpoint, code, e.Error, tc.want)
				}
				if e.Error == "" {
					t.Errorf("%s: error body is empty", endpoint)
				}
			}
		})
	}
	// Wrong method is routed away by the mux.
	resp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan = %d, want 405", resp.StatusCode)
	}
}

// TestDemandPastArenaIsUnprocessable pins the status of a demand whose
// forest would overflow the packed arena: the client chose it, so it is a
// 422 with the typed reason, never a 500.
func TestDemandPastArenaIsUnprocessable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := PlanRequest{Ratio: "2:1:1:1:1:1:9", Demand: 2_000_000_000, Mixers: 4}
	for _, endpoint := range []string{"/v1/plan", "/v1/stream"} {
		var e errorResponse
		if code := post(t, ts.URL+endpoint, req, &e); code != http.StatusUnprocessableEntity {
			t.Errorf("%s: status = %d (error %q), want 422", endpoint, code, e.Error)
		}
		if !strings.Contains(e.Error, "packed arena") {
			t.Errorf("%s: error %q does not name the arena limit", endpoint, e.Error)
		}
	}
}

func TestStreamEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp StreamResponse
	code := post(t, ts.URL+"/v1/stream", PlanRequest{
		Ratio: "2:1:1:1:1:1:9", Demand: 16, Storage: 4, Scheduler: "SRS",
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if len(resp.Passes) < 2 {
		t.Errorf("passes = %d, want multi-pass under storage 4", len(resp.Passes))
	}
	if resp.MaxSinglePassDemand <= 0 || resp.MaxSinglePassDemand > 16 {
		t.Errorf("max_single_pass_demand = %d, want in (0,16]", resp.MaxSinglePassDemand)
	}
	total := 0
	for _, em := range resp.Emissions {
		total += em.Count
	}
	if total != resp.Emitted {
		t.Errorf("emission timeline totals %d, emitted %d", total, resp.Emitted)
	}
}

// TestStreamScanSkipsPlanCache: a storage-limited stream request on a
// fresh cache looks up only the passes it plans (each lookup a miss that
// builds), not every candidate demand its D′ scan schedules.
func TestStreamScanSkipsPlanCache(t *testing.T) {
	cache := plancache.New(64)
	_, ts := newTestServer(t, Config{PlanCache: cache})
	var resp StreamResponse
	code := post(t, ts.URL+"/v1/stream", PlanRequest{
		Ratio: "2:1:1:1:1:1:9", Demand: 600, Storage: 4, Mixers: 4, Scheduler: "SRS",
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	st := cache.Stats()
	if st.Lookups != st.Builds || st.Builds < 1 || st.Builds > 2 {
		t.Fatalf("%d plan-cache lookups and %d builds for %d passes of D′ = %d; want one lookup per planned pass",
			st.Lookups, st.Builds, len(resp.Passes), resp.MaxSinglePassDemand)
	}
}

func TestExecuteEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var clean ExecuteResponse
	code := post(t, ts.URL+"/v1/execute", ExecuteRequest{
		PlanRequest: PlanRequest{Ratio: "2:1:1:1:1:1:9", Demand: 4, Scheduler: "SRS"},
	}, &clean)
	if code != http.StatusOK {
		t.Fatalf("clean run status = %d, want 200", code)
	}
	if clean.RunEmitted != clean.Emitted {
		t.Errorf("clean run emitted %d of %d planned", clean.RunEmitted, clean.Emitted)
	}
	if clean.Injected != 0 || clean.ExtraCycles != 0 || clean.Actuations <= 0 {
		t.Errorf("clean run not clean: %+v", clean)
	}

	var faulty ExecuteResponse
	code = post(t, ts.URL+"/v1/execute", ExecuteRequest{
		PlanRequest: PlanRequest{Ratio: "2:1:1:1:1:1:9", Demand: 4, Scheduler: "SRS"},
		FaultRate:   0.05, Seed: 1,
	}, &faulty)
	if code != http.StatusOK {
		t.Fatalf("faulty run status = %d, want 200", code)
	}
	if faulty.Detected != faulty.Recovered {
		t.Errorf("detected %d != recovered %d on a successful run", faulty.Detected, faulty.Recovered)
	}
	if faulty.RunEmitted != faulty.Emitted {
		t.Errorf("faulty run emitted %d of %d planned", faulty.RunEmitted, faulty.Emitted)
	}

	var e errorResponse
	if code := post(t, ts.URL+"/v1/execute", ExecuteRequest{
		PlanRequest: PlanRequest{Ratio: "1:3", Demand: 2},
		FaultRate:   1.5,
	}, &e); code != http.StatusBadRequest {
		t.Errorf("fault_rate 1.5 status = %d, want 400", code)
	}
}

func TestSessionTimeline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := PlanRequest{Ratio: "1:3", Demand: 4, Session: "assay-1"}
	var first, second PlanResponse
	if code := post(t, ts.URL+"/v1/plan", req, &first); code != http.StatusOK {
		t.Fatalf("first request: %d", code)
	}
	if code := post(t, ts.URL+"/v1/plan", req, &second); code != http.StatusOK {
		t.Fatalf("second request: %d", code)
	}
	if first.StartCycle != 1 {
		t.Errorf("first batch starts at %d, want 1", first.StartCycle)
	}
	if want := 1 + first.TotalCycles; second.StartCycle != want {
		t.Errorf("second batch starts at %d, want %d (timeline continuation)", second.StartCycle, want)
	}
	if second.Session != "assay-1" || second.Coalesced {
		t.Errorf("session response wrong: %+v", second)
	}

	// Same session, different config: conflict.
	var e errorResponse
	conflict := PlanRequest{Ratio: "1:3", Demand: 4, Session: "assay-1", Scheduler: "SRS"}
	if code := post(t, ts.URL+"/v1/plan", conflict, &e); code != http.StatusConflict {
		t.Errorf("config drift status = %d (error %q), want 409", code, e.Error)
	}
}

func TestSessionPoolEviction(t *testing.T) {
	pool := newSessionPool(sessionShards) // one session per shard
	poolSpec := mustSpec(t, PlanRequest{Ratio: "1:3", Demand: 1})
	builds := 0
	for i := 0; i < 4*sessionShards; i++ {
		name := fmt.Sprintf("s%d", i)
		_, release, err := pool.acquire(name, poolSpec, func() (*core.Engine, error) {
			builds++
			return core.New(core.Config{Target: ratio.MustParse("1:3")})
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	if got := pool.len(); got > sessionShards {
		t.Errorf("pool holds %d sessions, capacity %d", got, sessionShards)
	}
	if builds != 4*sessionShards {
		t.Errorf("builds = %d, want %d (every insert was an LRU miss)", builds, 4*sessionShards)
	}
}

func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup
	gate := make(chan struct{})
	var calls atomic.Int32
	leaderIn := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]any, 8)
	shared := make([]bool, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, _, sh := g.do(context.Background(), specKey{endpoint: "k"}, func() (any, error) {
			calls.Add(1)
			close(leaderIn)
			<-gate
			return 42, nil
		})
		results[0], shared[0] = v, sh
	}()
	<-leaderIn // leader is inside fn; followers will coalesce
	for i := 1; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, sh := g.do(context.Background(), specKey{endpoint: "k"}, func() (any, error) {
				calls.Add(1)
				return -1, nil
			})
			results[i], shared[i] = v, sh
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // let followers park on the flight
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	for i, v := range results {
		if v != 42 {
			t.Errorf("caller %d got %v, want 42", i, v)
		}
		if wantShared := i != 0; shared[i] != wantShared {
			t.Errorf("caller %d shared = %v, want %v", i, shared[i], wantShared)
		}
	}
}

func TestFlightGroupFollowerDeadline(t *testing.T) {
	var g flightGroup
	gate := make(chan struct{})
	leaderIn := make(chan struct{})
	go g.do(context.Background(), specKey{endpoint: "k"}, func() (any, error) {
		close(leaderIn)
		<-gate
		return 1, nil
	})
	<-leaderIn
	defer close(gate)

	ctx, cancelCtx := context.WithCancel(context.Background())
	cancelCtx()
	_, err, sh := g.do(ctx, specKey{endpoint: "k"}, func() (any, error) { return 2, nil })
	if !sh {
		t.Error("follower not marked shared")
	}
	if !errors.Is(err, cancel.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("follower error = %v, want typed cancellation", err)
	}
}

// TestCoalescedRequestsHitPlanCacheOnce pins the coalescing contract of the
// ISSUE: K identical concurrent stateless requests build the plan exactly
// once — asserted via the obs plancache counters (single-flight merges the
// concurrent duplicates, the plan cache absorbs any stragglers).
func TestCoalescedRequestsHitPlanCacheOnce(t *testing.T) {
	obs.Enable(obs.Options{})
	t.Cleanup(obs.Disable)
	_, ts := newTestServer(t, Config{MaxInFlight: 32, MaxQueue: 64})

	// A ratio unique to this test keeps its plancache key cold.
	req := PlanRequest{Ratio: "3:5:8", Demand: 6}
	before := obs.Counter("plancache.misses")

	const K = 24
	var wg sync.WaitGroup
	codes := make([]int, K)
	coalesced := make([]bool, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp PlanResponse
			codes[i] = post(t, ts.URL+"/v1/plan", req, &resp)
			coalesced[i] = resp.Coalesced
		}(i)
	}
	wg.Wait()

	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: status %d", i, c)
		}
	}
	if got := obs.Counter("plancache.misses") - before; got != 1 {
		t.Errorf("plan built %d times for %d identical requests, want exactly 1", got, K)
	}
	nCoal := 0
	for _, c := range coalesced {
		if c {
			nCoal++
		}
	}
	if got := obs.Counter("server.flights.coalesced"); got != int64(nCoal) {
		t.Errorf("coalesced counter %d != %d coalesced responses", got, nCoal)
	}
}

// TestConcurrentMixedLoad hammers all three endpoints with 500+ concurrent
// in-flight requests; under -race this is the zero-data-race acceptance
// criterion for the serving core.
func TestConcurrentMixedLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 512, MaxQueue: 512})
	ratios := []string{"1:1", "1:3", "1:7", "3:5:8", "2:1:1:1:1:1:9", "7:9", "1:2:5", "5:11"}

	const n = 520
	var wg sync.WaitGroup
	var fails atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ratio := ratios[i%len(ratios)]
			demand := 2 + 2*(i%4)
			var code int
			switch {
			case i%11 == 0: // session-routed requests share engines
				code = post(t, ts.URL+"/v1/plan", PlanRequest{
					Ratio: ratio, Demand: demand, Session: "sess-" + ratio,
				}, nil)
			case i%7 == 0:
				code = post(t, ts.URL+"/v1/stream", PlanRequest{
					Ratio: ratio, Demand: demand, Storage: 6, Scheduler: "SRS",
				}, nil)
			case i%13 == 0:
				code = post(t, ts.URL+"/v1/execute", ExecuteRequest{
					PlanRequest: PlanRequest{Ratio: ratio, Demand: 2},
				}, nil)
			default:
				code = post(t, ts.URL+"/v1/plan", PlanRequest{Ratio: ratio, Demand: demand}, nil)
			}
			if code != http.StatusOK {
				fails.Add(1)
				t.Errorf("request %d: status %d", i, code)
			}
		}(i)
	}
	wg.Wait()
	if fails.Load() > 0 {
		t.Fatalf("%d of %d concurrent requests failed", fails.Load(), n)
	}
}

// TestDeadlineExceeded pins the cancellation path end to end: a 1ms budget
// on a plan whose storage-limited D' scan takes far longer must surface the
// typed cancellation (HTTP 504) and release the admission slot.
func TestDeadlineExceeded(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 2, MaxQueue: 2})
	var e errorResponse
	code := post(t, ts.URL+"/v1/plan", PlanRequest{
		Ratio: "2:1:1:1:1:1:9", Demand: 10000, Storage: 4, Scheduler: "SRS", TimeoutMS: 1,
	}, &e)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (error %q), want 504", code, e.Error)
	}
	if !strings.Contains(e.Error, "canceled") {
		t.Errorf("error %q does not surface the typed cancellation", e.Error)
	}

	// The slot must be back: with MaxInFlight 2, two healthy requests
	// succeed immediately and nothing is queued.
	for i := 0; i < 2; i++ {
		if code := post(t, ts.URL+"/v1/plan", PlanRequest{Ratio: "1:3", Demand: 4}, nil); code != http.StatusOK {
			t.Fatalf("post-timeout request %d: status %d, want 200 (slot leaked?)", i, code)
		}
	}
	if got := len(s.slots); got != 0 {
		t.Errorf("%d admission slots still held after all requests finished", got)
	}
}

// TestStatusForCancellation pins the error typing the handlers rely on.
func TestStatusForCancellation(t *testing.T) {
	ctx, cancelCtx := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelCtx()
	err := cancel.Check(ctx)
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("cancel.Check = %v, want ErrCanceled", err)
	}
	if got := statusFor(err); got != http.StatusGatewayTimeout {
		t.Errorf("deadline status = %d, want 504", got)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if got := statusFor(cancel.Check(ctx2)); got != http.StatusServiceUnavailable {
		t.Errorf("client-cancel status = %d, want 503", got)
	}
}

func TestAdmissionBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1})
	// Occupy the only slot and fill the queue from the test itself.
	s.slots <- struct{}{}
	s.waiting.Add(1)

	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(ts.URL+"/v1/plan", "application/json",
		strings.NewReader(`{"ratio":"1:3","demand":4}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Release the slot; the server serves again.
	s.waiting.Add(-1)
	<-s.slots
	if code := post(t, ts.URL+"/v1/plan", PlanRequest{Ratio: "1:3", Demand: 4}, nil); code != http.StatusOK {
		t.Fatalf("post-backpressure status = %d, want 200", code)
	}
}

func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 4, MaxQueue: 4})

	// A request slow enough to still be in flight when the drain begins.
	slowDone := make(chan int, 1)
	go func() {
		slowDone <- post(t, ts.URL+"/v1/plan", PlanRequest{
			Ratio: "2:1:1:1:1:1:9", Demand: 600, Storage: 4, Scheduler: "SRS",
		}, nil)
	}()
	time.Sleep(20 * time.Millisecond) // let it be admitted

	drained := make(chan error, 1)
	go func() {
		ctx, cancelCtx := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancelCtx()
		drained <- s.Drain(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New work is refused while draining.
	var e errorResponse
	if code := post(t, ts.URL+"/v1/plan", PlanRequest{Ratio: "1:3", Demand: 4}, &e); code != http.StatusServiceUnavailable {
		t.Errorf("request during drain: status %d, want 503", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Errorf("healthz during drain = %d %q, want 503 draining", resp.StatusCode, h.Status)
	}

	// The in-flight request finishes cleanly and the drain completes.
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := <-slowDone; code != http.StatusOK {
		t.Errorf("in-flight request during drain: status %d, want 200", code)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	obs.Enable(obs.Options{})
	t.Cleanup(obs.Disable)
	_, ts := newTestServer(t, Config{})
	if code := post(t, ts.URL+"/v1/plan", PlanRequest{Ratio: "1:3", Demand: 4}, nil); code != http.StatusOK {
		t.Fatalf("plan: %d", code)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Errorf("healthz = %d %q, want 200 ok", resp.StatusCode, h.Status)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Errorf("metrics = %d, want 200", mresp.StatusCode)
	}
	for _, want := range []string{"server.requests", "server.requests.plan", "server.status.200"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
}
