package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/plancache"
)

// FuzzAdoptSnapshot feeds arbitrary bytes to adopt's decode path: DMFBWAL1
// frames without repair, the fold boot recovery shares, and the WAL spec
// codec. It never panics, and it either rejects the snapshot with an error
// and no session, or returns the one consistent session the path names, with
// contiguous batch ordinals and a spec that survives the codec.
func FuzzAdoptSnapshot(f *testing.F) {
	const name = "fuzz"
	valid, rejected := adoptTableSnapshots(f, name, 1, 6)
	f.Add(valid)
	for _, body := range rejected {
		f.Add(body)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := decodeSnapshot(name, data)
		if err != nil {
			if rs != nil {
				t.Fatalf("rejected snapshot (%v) returned a session", err)
			}
			return
		}
		if rs.name != name || rs.spec == nil || rs.broken != "" || rs.evicted {
			t.Fatalf("accepted an unusable session: %+v", rs)
		}
		for i, b := range rs.batches {
			if b.ord != i+1 {
				t.Fatalf("batch %d has ordinal %d", i, b.ord)
			}
		}
		back, err := specFromWAL(specToWAL(rs.spec), 1)
		if err != nil || back.fingerprint() != rs.spec.fingerprint() {
			t.Fatalf("accepted spec %q does not survive the codec: %v", rs.spec.fingerprint(), err)
		}
	})
}

// maxFuzzDemand bounds the demand of a fuzzed request body. One forest
// build is not cancelable and grows with the demand (about a second at
// 100 000 droplets, minutes and gigabytes at 1 000 000), so larger demands
// would measure that known limit rather than the request path.
const maxFuzzDemand = 4096

// refuseTransport fails every peer call, so a fuzzed membership change can
// never reach a real host.
type refuseTransport struct{}

func (refuseTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("fuzz: peer calls refused")
}

// FuzzServeRequest sends a (route, body) pair through Handler() of a fresh
// server with every tier configured — an artifact store, a chip fleet and a
// one-member cluster whose peers are unreachable — and a 100 ms
// MaxTimeout. Whatever the bytes, the request never panics, never answers
// 500 and never hangs.
func FuzzServeRequest(f *testing.F) {
	const addr = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	routes := []struct{ method, path string }{
		{http.MethodPost, "/v1/plan"},
		{http.MethodPost, "/v1/stream"},
		{http.MethodPost, "/v1/execute"},
		{http.MethodPost, "/v1/assay"},
		{http.MethodPost, "/v1/artifact/build"},
		{http.MethodGet, "/v1/artifact/" + addr},
		{http.MethodPut, "/v1/artifact/" + addr},
		{http.MethodPost, "/v1/session/fuzz/migrate"},
		{http.MethodPost, "/v1/session/fuzz/adopt"},
		{http.MethodPost, "/v1/cluster/members"},
		{http.MethodGet, "/v1/recovery"},
	}
	routeOf := func(path string) uint8 {
		for i, rt := range routes {
			if rt.path == path {
				return uint8(i)
			}
		}
		panic(path)
	}
	for _, seed := range []struct{ path, body string }{
		{"/v1/execute", `{"ratio":"1:3","demand":4,"mixers":100000}`},
		{"/v1/execute", `{"ratio":"1:3","demand":4,"storage":1000000000}`},
		{"/v1/plan", `{"ratio":"1:3","demand":2,"error_aware":true,"cycle_slack":1e30}`},
		{"/v1/execute", `{"ratio":"2:1:1:1:1:1:9","demand":40}`},
		{"/v1/stream", `{"ratio":"2:1:1:1:1:1:9","demand":600,"mixers":4,"storage":4,"scheduler":"srs"}`},
		{"/v1/assay", `{"ratio":"1:3","demand":4}`},
		{"/v1/artifact/build", `{"ratio":"1:2:5:8","demand":8}`},
		{"/v1/plan", `{"ratio":"1:2:5:8","demand":4,"session":"s","timeout_ms":5}`},
		// Storage-limited, error-aware and session plans climb the artifact tier.
		{"/v1/stream", `{"ratio":"1:2:5:8","demand":50,"mixers":3,"storage":6}`},
		{"/v1/plan", `{"ratio":"2:1:1:1:1:1:9","demand":20,"error_aware":true,"split_imbalance":0.05}`},
		{"/v1/stream", `{"ratio":"1:2:5:8","demand":10,"storage":6,"session":"tier","error_aware":true}`},
		{"/v1/cluster/members", `{"action":"join","id":"p","url":"http://p:1"}`},
		{"/v1/cluster/members", `{"action":"leave","id":"ghost"}`},
		{"/v1/session/fuzz/adopt", "DMFBWAL1"},
		{"/v1/artifact/" + addr, "x"},
	} {
		f.Add(routeOf(seed.path), []byte(seed.body))
	}

	cache := plancache.New(64)
	store, err := artifact.OpenStore(f.TempDir(), 64)
	if err != nil {
		f.Fatal(err)
	}
	fl := fleet.New(fleet.Config{Chips: fleet.DefaultChips(2)})

	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		var probe struct{ Demand int }
		if json.NewDecoder(bytes.NewReader(body)).Decode(&probe) == nil && probe.Demand > maxFuzzDemand {
			t.Skip("demand above maxFuzzDemand")
		}
		node, err := cluster.NewNode(cluster.Config{Self: "fuzz", Transport: refuseTransport{}})
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{
			MaxTimeout: 100 * time.Millisecond, PlanCache: cache, Artifacts: store, Fleet: fl, Cluster: node,
		})
		rt := routes[int(route)%len(routes)]
		req := httptest.NewRequest(rt.method, rt.path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			s.Handler().ServeHTTP(rec, req)
		}()
		select {
		case p := <-done:
			if p != nil {
				t.Fatalf("%s %s %q panicked: %v", rt.method, rt.path, body, p)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s %s %q hung", rt.method, rt.path, body)
		}
		s.WaitPublish()
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("%s %s %q answered 500: %s", rt.method, rt.path, body, rec.Body)
		}
	})
}
