package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/chip"
)

// TestExecuteStorageGrid pins the floorplan sizing of /v1/execute: the
// storage cells cover the largest storage any pass needs, so an
// unlimited-storage plan that stores more than the 8-cell default still
// executes. The grid is 6 ratios (PCR, 1:3, 3:5, 1:1:2:4 and the two
// non-monotone storage fixtures 7:1:4:4 and PCR at d=5) × 6 demands × MMS/SRS
// × MM/RMA/MTCS × stateless or session: 432 requests, every one a 200.
func TestExecuteStorageGrid(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	n := 0
	for _, r := range []string{"2:1:1:1:1:1:9", "1:3", "3:5", "1:1:2:4", "7:1:4:4", "3:3:1:1:1:1:22"} {
		for _, d := range []int{8, 16, 20, 40, 64, 128} {
			for _, sch := range []string{"MMS", "SRS"} {
				for _, alg := range []string{"MM", "RMA", "MTCS"} {
					for _, session := range []string{"", "grid"} {
						if session != "" {
							session = fmt.Sprintf("grid-%d", n)
						}
						n++
						req := ExecuteRequest{PlanRequest: PlanRequest{
							Ratio: r, Demand: d, Scheduler: sch, Algorithm: alg, Session: session,
						}}
						var resp ExecuteResponse
						if code := post(t, ts.URL+"/v1/execute", req, &resp); code != http.StatusOK {
							t.Fatalf("%+v: status %d", req.PlanRequest, code)
						}
						if resp.RunEmitted < d {
							t.Fatalf("%+v: run emitted %d of %d", req.PlanRequest, resp.RunEmitted, d)
						}
					}
				}
			}
		}
	}
	if n != 432 {
		t.Fatalf("grid has %d requests, want 432", n)
	}
}

// TestExecuteModuleCeiling pins the floorplan limit at the HTTP surface: a
// 1:3 execution on a chip of exactly chip.MaxModules modules (2 reservoirs,
// 8 storage cells, 3 ports and the rest mixers) runs, and one more mixer is
// a typed 422 rather than a routing matrix sized by the client.
func TestExecuteModuleCeiling(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mixers := chip.MaxModules - 2 - 8 - 3
	var resp ExecuteResponse
	if code := post(t, ts.URL+"/v1/execute", ExecuteRequest{PlanRequest: PlanRequest{Ratio: "1:3", Demand: 2, Mixers: mixers}}, &resp); code != http.StatusOK {
		t.Fatalf("%d mixers (census %d): status %d, want 200", mixers, chip.MaxModules, code)
	}
	if resp.Mixers != mixers {
		t.Fatalf("engine runs %d mixers, want %d", resp.Mixers, mixers)
	}
	var e errorResponse
	if code := post(t, ts.URL+"/v1/execute", ExecuteRequest{PlanRequest: PlanRequest{Ratio: "1:3", Demand: 2, Mixers: mixers + 1}}, &e); code != http.StatusUnprocessableEntity {
		t.Fatalf("%d mixers (census %d): status %d (%q), want 422", mixers+1, chip.MaxModules+1, code, e.Error)
	}
	if !strings.Contains(e.Error, "module census") {
		t.Errorf("error %q does not name the module limit", e.Error)
	}
}

// TestHugeCycleSlackServes pins the cycle-slack overflow fix end to end: a
// slack too large for the cycle limit admits every candidate and serves,
// on every planning endpoint and twice in a row (a panicking leader used to
// wedge its flight key for every later identical request).
func TestHugeCycleSlackServes(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultTimeout: 5 * time.Second})
	req := PlanRequest{Ratio: "1:3", Demand: 2, ErrorAware: true, CycleSlack: 1e30}
	for _, path := range []string{"/v1/plan", "/v1/plan", "/v1/stream", "/v1/execute"} {
		var e errorResponse
		if code := post(t, ts.URL+path, req, &e); code != http.StatusOK {
			t.Fatalf("%s: status %d (%q), want 200", path, code, e.Error)
		}
	}
}

// TestFlightLeaderPanicReleasesKey pins the single-flight panic fix: a
// leader that panics still ends its flight — its followers read
// errLeaderPanicked instead of waiting forever — the panic reaches the
// leader's caller, the key is free for the next caller, and drain returns.
func TestFlightLeaderPanicReleasesKey(t *testing.T) {
	var g flightGroup
	leaderIn, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan any)
	go func() {
		defer func() { leaderDone <- recover() }()
		g.do(context.Background(), specKey{endpoint: "k"}, func() (any, error) {
			close(leaderIn)
			<-release
			panic("boom")
		})
	}()
	<-leaderIn
	g.mu.Lock()
	f := g.m[specKey{endpoint: "k"}]
	g.mu.Unlock()
	close(release)
	if p := <-leaderDone; p != "boom" {
		t.Fatalf("leader's caller recovered %v, want the leader's own panic", p)
	}
	select {
	case <-f.done:
	default:
		t.Fatal("a panicked leader left its flight open: followers wait forever")
	}
	if !errors.Is(f.err, errLeaderPanicked) {
		t.Fatalf("followers of a panicked leader read %v, want errLeaderPanicked", f.err)
	}
	g.drain()
	v, err, shared := g.do(context.Background(), specKey{endpoint: "k"}, func() (any, error) { return "fresh", nil })
	if v != "fresh" || err != nil || shared {
		t.Fatalf("next caller got %v, %v, shared=%v, want a fresh run", v, err, shared)
	}
}

// TestCoalescedFollowerHonoursDeadline pins the intake deadline on coalesced
// followers: a stateless plan whose identical leader never finishes answers
// 504 once its own timeout_ms passes, instead of holding its admission slot
// for as long as the leader runs.
func TestCoalescedFollowerHonoursDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	spec := mustSpec(t, PlanRequest{Ratio: "1:3", Demand: 4})
	stuck := &flight{done: make(chan struct{})}
	s.flights.mu.Lock()
	s.flights.m = map[specKey]*flight{spec.flightKey("plan"): stuck}
	s.flights.mu.Unlock()
	defer close(stuck.done)

	codes := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(`{"ratio":"1:3","demand":4,"timeout_ms":50}`))
		if err != nil {
			t.Error(err)
			codes <- 0
			return
		}
		resp.Body.Close()
		codes <- resp.StatusCode
	}()
	select {
	case code := <-codes:
		if code != http.StatusGatewayTimeout {
			t.Fatalf("follower of a stuck leader: status %d, want 504", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower of a stuck leader ignored its own deadline")
	}
	// The slot is released just after the response is written.
	for deadline := time.Now().Add(2 * time.Second); len(s.slots) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d admission slots still held", len(s.slots))
		}
	}
}

// TestSingleFluidRatioIsBadRequest pins the validation FuzzServeRequest
// found missing: a one-fluid ratio needs no mixing, so every planning
// endpoint refuses it as a client error instead of failing in the base-tree
// builder with a 500.
func TestSingleFluidRatioIsBadRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/plan", "/v1/stream", "/v1/execute"} {
		var e errorResponse
		if code := post(t, ts.URL+path, PlanRequest{Ratio: "4", Demand: 1}, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%q), want 400", path, code, e.Error)
		}
	}
}
