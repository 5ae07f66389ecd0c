package server

import "testing"

// TestSpecFingerprintBytes pins the bytes of a spec's fingerprint: session
// pins, the session-open record's Fingerprint field and recovery compare
// them across restarts and across nodes, so a rendering change would orphan
// every logged session. The wanted strings are the historical fmt output
// ("%s|%s|%s|m%d|q%d", plus "|ea:i%g,d%g,s%g" for error-aware specs). The
// ratio renders from its parts, never from the request text.
func TestSpecFingerprintBytes(t *testing.T) {
	cases := []struct {
		req  PlanRequest
		want string
	}{
		{PlanRequest{Ratio: "2:1:1:1:1:1:9"}, "2:1:1:1:1:1:9|MM|MMS|m0|q0"},
		{PlanRequest{Ratio: "2:1:1:1:1:1:9", Scheduler: "srs"}, "2:1:1:1:1:1:9|MM|SRS|m0|q0"},
		{PlanRequest{Ratio: "1:3", Algorithm: "RMA", Mixers: 3}, "1:3|RMA|MMS|m3|q0"},
		{PlanRequest{Ratio: "1:3", Algorithm: "rma", Scheduler: "SRS", Storage: 5}, "1:3|RMA|SRS|m0|q5"},
		{PlanRequest{Ratio: "5:3:4:4", Algorithm: "MTCS", Mixers: 12, Storage: 40}, "5:3:4:4|MTCS|MMS|m12|q40"},
		{PlanRequest{Ratio: "5:3:4:4", Algorithm: "MTCS", Scheduler: "SRS"}, "5:3:4:4|MTCS|SRS|m0|q0"},
		{PlanRequest{Ratio: "26:21:2:2:3:3:199", Algorithm: "RSM", Mixers: 1}, "26:21:2:2:3:3:199|RSM|MMS|m1|q0"},
		{PlanRequest{Ratio: "26:21:2:2:3:3:199", Algorithm: "RSM", Scheduler: "SRS", Mixers: 7, Storage: 1}, "26:21:2:2:3:3:199|RSM|SRS|m7|q1"},
		{PlanRequest{Ratio: "1:1:1:1:1:1:1:1:1:1:1:21", Algorithm: "MM", Scheduler: "MMS"}, "1:1:1:1:1:1:1:1:1:1:1:21|MM|MMS|m0|q0"},
		{PlanRequest{Ratio: "100:3:5:7:9:11:13:15:17:19:21:1828", Scheduler: "SRS", Mixers: 9, Storage: 16}, "100:3:5:7:9:11:13:15:17:19:21:1828|MM|SRS|m9|q16"},
		{PlanRequest{Ratio: " 02 : +1:1 ", Storage: 2}, "2:1:1|MM|MMS|m0|q2"},
		{PlanRequest{Ratio: "1:3", ErrorAware: true}, "1:3|MM|MMS|m0|q0|ea:i0,d0,s0"},
		{PlanRequest{Ratio: "1:3", ErrorAware: true, SplitImbalance: 0.05}, "1:3|MM|MMS|m0|q0|ea:i0.05,d0,s0"},
		{PlanRequest{Ratio: "2:1:1:1:1:1:9", ErrorAware: true, SplitImbalance: 1e-07, DispenseError: 0.02}, "2:1:1:1:1:1:9|MM|MMS|m0|q0|ea:i1e-07,d0.02,s0"},
		{PlanRequest{Ratio: "2:1:1:1:1:1:9", Scheduler: "SRS", ErrorAware: true, SplitImbalance: 0.1, CycleSlack: 2.5}, "2:1:1:1:1:1:9|MM|SRS|m0|q0|ea:i0.1,d0,s2.5"},
		{PlanRequest{Ratio: "5:3:4:4", Mixers: 4, Storage: 6, ErrorAware: true, SplitImbalance: 0.30000000000000004, DispenseError: 1e-07, CycleSlack: 1e21}, "5:3:4:4|MM|MMS|m4|q6|ea:i0.30000000000000004,d1e-07,s1e+21"},
		{PlanRequest{Ratio: "26:21:2:2:3:3:199", ErrorAware: true, SplitImbalance: 0.49999999999999994, DispenseError: 0.49999999999999994, CycleSlack: 0.125}, "26:21:2:2:3:3:199|MM|MMS|m0|q0|ea:i0.49999999999999994,d0.49999999999999994,s0.125"},
		{PlanRequest{Ratio: "1:1:1:1:1:1:1:1:1:1:1:21", ErrorAware: true, DispenseError: 0.05, CycleSlack: 3}, "1:1:1:1:1:1:1:1:1:1:1:21|MM|MMS|m0|q0|ea:i0,d0.05,s3"},
	}
	for _, c := range cases {
		req := c.req
		req.Demand = 20
		spec, err := parsePlanRequest(&req)
		if err != nil {
			t.Fatalf("%+v: %v", c.req, err)
		}
		if got := spec.fingerprint(); got != c.want {
			t.Errorf("%+v: fingerprint %q, want %q", c.req, got, c.want)
		}
	}
}

// TestSpecKeysSeparateDemandAndEndpoint checks the keys derived from a
// fingerprint: equal requests share their plan and flight keys, and a
// different demand or endpoint gives a different one.
func TestSpecKeysSeparateDemandAndEndpoint(t *testing.T) {
	parse := func(req PlanRequest) *planSpec {
		t.Helper()
		spec, err := parsePlanRequest(&req)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	for _, req := range []PlanRequest{
		{Ratio: "2:1:1:1:1:1:9", Demand: 8, Scheduler: "SRS", Storage: 6},
		{Ratio: "5:3:4:4", Demand: 8, ErrorAware: true, SplitImbalance: 0.05, CycleSlack: 2.5},
	} {
		a, b := parse(req), parse(req)
		req.Demand++
		other := parse(req)
		if planKeyOf(a) != planKeyOf(b) {
			t.Errorf("%+v: equal requests have different plan keys", req)
		}
		if planKeyOf(a) == planKeyOf(other) {
			t.Errorf("%+v: demands %d and %d share a plan key", req, a.demand, other.demand)
		}
		if a.flightKey("plan") != b.flightKey("plan") {
			t.Errorf("%+v: equal requests have different flight keys", req)
		}
		if a.flightKey("plan") == other.flightKey("plan") {
			t.Errorf("%+v: demands %d and %d share a flight key", req, a.demand, other.demand)
		}
		if a.flightKey("plan") == a.flightKey("stream") || a.flightKey("plan") == a.flightKey("artifact") {
			t.Errorf("%+v: endpoints share a flight key", req)
		}
	}
}
