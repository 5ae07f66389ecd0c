package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/protocols"
	"repro/internal/ratio"
	"repro/internal/stream"
)

// sessionsOwnedBy returns n distinct session names whose ring owner is the
// node, so a session request sent to it is served there, not redirected.
func sessionsOwnedBy(t *testing.T, nd *clusterNode, n int) []string {
	t.Helper()
	var names []string
	for i := 0; len(names) < n; i++ {
		if i > 100000 {
			t.Fatalf("too few session names hash to %s", nd.id)
		}
		name := fmt.Sprintf("eq-%s-%d", nd.id, i)
		if nd.srv.clusterNode.Owner("session|"+name) == nd.id {
			names = append(names, name)
		}
	}
	return names
}

// equivalenceGrid is the request sequence TestClusterMatchesTierlessServer
// sends: every planning endpoint, stateless and session, unlimited and
// limited storage, error-blind and error-aware, over two ratios. sessions
// names one session per (ratio, storage, error policy) spec.
func equivalenceGrid(sessions []string) (paths []string, bodies []ExecuteRequest) {
	spec := 0
	for _, ratio := range []string{"1:2:5:8", "2:1:1:1:1:1:9"} {
		for _, storage := range []int{0, 6} {
			for _, errorAware := range []bool{false, true} {
				req := PlanRequest{Ratio: ratio, Demand: 50, Mixers: 3, Storage: storage, Scheduler: "SRS"}
				if errorAware {
					req.ErrorAware, req.SplitImbalance, req.DispenseError = true, 0.05, 0.02
				}
				for _, session := range []string{"", sessions[spec]} {
					req.Session = session
					for _, path := range []string{"/v1/plan", "/v1/stream", "/v1/execute"} {
						paths = append(paths, path)
						bodies = append(bodies, ExecuteRequest{PlanRequest: req})
					}
				}
				spec++
			}
		}
	}
	return paths, bodies
}

// TestClusterMatchesTierlessServer: every plan a clustered node serves —
// stateless or session, storage-limited, error-aware, on /v1/plan,
// /v1/stream and /v1/execute — answers exactly as a tierless server does,
// and the fleet builds each distinct pass plan once: its total Builds equal
// the tierless server's.
func TestClusterMatchesTierlessServer(t *testing.T) {
	nodes := newTestCluster(t, 3)
	refCache := plancache.New(256)
	_, ref := newTestServer(t, Config{PlanCache: refCache})
	answer := func(url string, body any) (int, map[string]any) {
		var resp map[string]any
		code := post(t, url, body, &resp)
		delete(resp, "session_owner")
		delete(resp, "coalesced")
		return code, resp
	}
	for _, nd := range nodes {
		paths, bodies := equivalenceGrid(sessionsOwnedBy(t, nd, 8))
		for i, path := range paths {
			wantCode, want := answer(ref.URL+path, bodies[i])
			gotCode, got := answer(nd.ts.URL+path, bodies[i])
			waitPublishes(nodes)
			if wantCode != http.StatusOK {
				t.Errorf("reference %s %+v: status %d %v", path, bodies[i], wantCode, want)
			}
			if gotCode != wantCode || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s %+v:\n got %d %v\nwant %d %v", nd.id, path, bodies[i], gotCode, got, wantCode, want)
			}
		}
	}
	want := refCache.Stats().Builds
	if want == 0 {
		t.Fatal("the reference server built nothing")
	}
	if got := totalBuilds(nodes); got != want {
		t.Fatalf("fleet-wide builds = %d, want %d (each distinct pass plan built once)", got, want)
	}
}

// TestClusterConcurrentTieredPlans: concurrent storage-limited error-aware
// streams on every node of a fleet climb the tier at once (fetches,
// delegated builds and async publishes interleave) and all answer the same.
func TestClusterConcurrentTieredPlans(t *testing.T) {
	nodes := newTestCluster(t, 3)
	req := PlanRequest{Ratio: "2:1:1:1:1:1:9", Demand: 50, Mixers: 3, Storage: 6, ErrorAware: true, SplitImbalance: 0.05}
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	const perNode = 4
	bodies := make([]StreamResponse, len(nodes)*perNode)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(nodes[i%len(nodes)].ts.URL+"/v1/stream", "application/json", bytes.NewReader(buf))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
			if err := json.NewDecoder(resp.Body).Decode(&bodies[i]); err != nil {
				t.Errorf("request %d: decode: %v", i, err)
			}
			bodies[i].Coalesced = false
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	waitPublishes(nodes)
	for i := range bodies {
		if !reflect.DeepEqual(bodies[i], bodies[0]) {
			t.Fatalf("request %d answered %+v, request 0 %+v", i, bodies[i], bodies[0])
		}
	}
}

// TestPeerBuildNeverBouncesToOwner: a build request for a key owned by node
// 1 that lands on node 0 (their rings could disagree) is built on node 0,
// with no peer call: a build served for a peer never takes the peer rung.
func TestPeerBuildNeverBouncesToOwner(t *testing.T) {
	nodes := newTestCluster(t, 2)
	var req PlanRequest
	for d := 2; req.Ratio == ""; d += 2 {
		if d > 400 {
			t.Fatal("no demand's plan key is owned by node 1")
		}
		cand := PlanRequest{Ratio: "1:2:5:8", Algorithm: "MM", Demand: d, Mixers: 2, Scheduler: "MMS"}
		spec, err := parsePlanRequest(&cand)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := nodes[0].srv.newEngine(spec)
		if err != nil {
			t.Fatal(err)
		}
		key := eng.PlanKey(d)
		if nodes[0].srv.clusterNode.Owner(artifact.AddressFor(key)) == nodes[1].id {
			req = cand
		}
	}

	obs.Enable(obs.Options{})
	t.Cleanup(obs.Disable)
	counters := []string{
		"cluster.build.ok", "cluster.build.errors", "cluster.build.not_found", "cluster.build.breaker_rejected",
		"cluster.fetch.ok", "cluster.fetch.errors", "cluster.fetch.not_found", "cluster.fetch.breaker_rejected",
	}
	before := make([]int64, len(counters))
	for i, c := range counters {
		before[i] = obs.Counter(c)
	}
	buildArtifact(t, nodes[0], req)
	waitPublishes(nodes)
	if b0, b1 := nodes[0].cache.Stats().Builds, nodes[1].cache.Stats().Builds; b0 != 1 || b1 != 0 {
		t.Fatalf("builds: node 0 = %d, node 1 = %d; want 1 and 0", b0, b1)
	}
	for i, c := range counters {
		if d := obs.Counter(c) - before[i]; d != 0 {
			t.Errorf("%s moved by %d: the peer build called a peer", c, d)
		}
	}
}

// TestTieredAssayPlansThroughServerCache: a tiered server's /v1/assay plans
// through the server's own cache, and so through its artifact tier, like
// every other planning route; the process-wide default cache sees no lookup.
func TestTieredAssayPlansThroughServerCache(t *testing.T) {
	store, err := artifact.OpenStore(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Artifacts: store, Fleet: fleet.New(fleet.Config{Chips: fleet.DefaultChips(2)})})
	before := plancache.Default().Stats()
	var resp AssayResponse
	if code := post(t, ts.URL+"/v1/assay", AssayRequest{
		PlanRequest: PlanRequest{Ratio: "2:1:1:1:1:1:9", Demand: 6, Scheduler: "SRS"},
	}, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	s.WaitPublish()
	if after := plancache.Default().Stats(); after.Lookups != before.Lookups || after.Builds != before.Builds {
		t.Errorf("plancache.Default() moved: lookups %d -> %d, builds %d -> %d",
			before.Lookups, after.Lookups, before.Builds, after.Builds)
	}
	if s.planCache.Stats().Builds == 0 {
		t.Error("the assay did not plan through the server's cache")
	}
	if store.Len() == 0 {
		t.Error("the assay's plan was not published to the artifact tier")
	}
}

// TestServerCachesIsolateScans: two servers in one process, each with a
// cache of its own, share no memoised planning state. The same
// storage-limited stream request sent to A and then to B makes B run its
// own demand scan (a scan cuts over-budget candidates, which no plan build
// does), and B's traffic moves neither A's counters nor A's scans.
func TestServerCachesIsolateScans(t *testing.T) {
	obs.Enable(obs.Options{})
	t.Cleanup(obs.Disable)
	cacheA, cacheB := plancache.New(64), plancache.New(64)
	_, tsA := newTestServer(t, Config{PlanCache: cacheA})
	_, tsB := newTestServer(t, Config{PlanCache: cacheB})
	req := PlanRequest{Ratio: "3:1:1:1:1:1:8", Demand: 41, Mixers: 4, Storage: 4, Scheduler: "SRS"}

	var respA, respB StreamResponse
	if code := post(t, tsA.URL+"/v1/stream", req, &respA); code != http.StatusOK {
		t.Fatalf("A: status %d", code)
	}
	statsA := cacheA.Stats()
	if statsA.Scans == 0 {
		t.Fatal("A memoised no scan; the request is not storage-limited")
	}
	cuts := obs.Counter("sched.schedules_cut")
	if code := post(t, tsB.URL+"/v1/stream", req, &respB); code != http.StatusOK {
		t.Fatalf("B: status %d", code)
	}
	if obs.Counter("sched.schedules_cut") == cuts {
		t.Error("B cut no candidate schedule: it reused A's demand scan")
	}
	if after := cacheA.Stats(); after != statsA {
		t.Errorf("B's request moved A's cache: %+v -> %+v", statsA, after)
	}
	if cacheB.Stats().Scans == 0 {
		t.Error("B memoised no scan of its own")
	}
	if respA.MaxSinglePassDemand != respB.MaxSinglePassDemand || respA.TotalCycles != respB.TotalCycles {
		t.Errorf("A and B planned differently: D'=%d/%d, cycles %d/%d",
			respA.MaxSinglePassDemand, respB.MaxSinglePassDemand, respA.TotalCycles, respB.TotalCycles)
	}
}

// TestTierFetchMatchesNames: an artifact address leaves the target's fluid
// names out, so a plan of 2:1:1:1:1:1:9 and one of PCR16 (the same ratio,
// named) share one. The tier serves the stored plan only to the key it was
// built under; the named key misses and is built locally.
func TestTierFetchMatchesNames(t *testing.T) {
	store, err := artifact.OpenStore(t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	tier := artifactTier{New(Config{Artifacts: store})}
	key := func(r ratio.Ratio) (plancache.Key, *plancache.Plan) {
		g, err := core.MM.Build(r)
		if err != nil {
			t.Fatal(err)
		}
		p, err := stream.BuildPlan(stream.Config{Base: g, Mixers: 3, Scheduler: stream.MMS}, 20)
		if err != nil {
			t.Fatal(err)
		}
		return plancache.KeyFor(g, 20, 3, "MMS", plancache.PristinePolicy), p
	}
	plain, p := key(ratio.MustParse("2:1:1:1:1:1:9"))
	named, _ := key(protocols.PCR16().Ratio)
	addr := artifact.AddressFor(plain)
	if artifact.AddressFor(named) != addr || named == plain {
		t.Fatal("test premise: the two keys differ in names only")
	}
	data, err := artifact.Encode(plain, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(addr, data); err != nil {
		t.Fatal(err)
	}
	if _, ok := tier.Fetch(context.Background(), named); ok {
		t.Fatal("the tier served an unnamed target's plan to a named key")
	}
	if got, ok := tier.Fetch(context.Background(), plain); !ok || got.Packed().Base.Target.Name(0) != "x1" {
		t.Fatalf("the tier did not serve the stored plan to its own key (ok=%v)", ok)
	}
}
