package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/protocols"
	"repro/internal/sched"
)

// clusterNode is one in-process dmfbd node of a test fleet: its own plan
// cache, its own warm disk tier, its own HTTP listener.
type clusterNode struct {
	id    string
	srv   *Server
	cache *plancache.Cache
	store *artifact.Store
	ts    *httptest.Server
}

// newTestCluster starts n nodes that know each other through a shared ring.
// Listeners come up before the servers exist (peer URLs are needed at
// construction), so each listener forwards through an atomic handler slot.
func newTestCluster(t *testing.T, n int) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	slots := make([]atomic.Pointer[http.Handler], n)
	for i := range nodes {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h := slots[i].Load()
			if h == nil {
				http.Error(w, "node not up", http.StatusServiceUnavailable)
				return
			}
			(*h).ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		nodes[i] = &clusterNode{id: fmt.Sprintf("node-%d", i), ts: ts}
	}
	for i, nd := range nodes {
		var peers []cluster.Peer
		for j, other := range nodes {
			if j != i {
				peers = append(peers, cluster.Peer{ID: other.id, URL: other.ts.URL})
			}
		}
		cn, err := cluster.NewNode(cluster.Config{
			Self: nd.id, Peers: peers, Timeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		nd.cache = plancache.New(64)
		st, err := artifact.OpenStore(t.TempDir(), 64)
		if err != nil {
			t.Fatal(err)
		}
		nd.store = st
		nd.srv = New(Config{PlanCache: nd.cache, Artifacts: st, Cluster: cn})
		h := nd.srv.Handler()
		slots[i].Store(&h)
	}
	// Registered after every TempDir cleanup, so it runs first: async replica
	// pushes anywhere in the fleet must quiesce before stores are torn down.
	t.Cleanup(func() { waitPublishes(nodes) })
	return nodes
}

// totalBuilds sums cold plan builds across the fleet's isolated caches.
func totalBuilds(nodes []*clusterNode) int64 {
	var n int64
	for _, nd := range nodes {
		n += nd.cache.Stats().Builds
	}
	return n
}

func waitPublishes(nodes []*clusterNode) {
	for _, nd := range nodes {
		nd.srv.WaitPublish()
	}
}

// TestClusterBuildsOnce: every node serves the same stateless plan, but the
// fleet pays for exactly one cold build — the ring owner's. Followers adopt
// the owner's artifact (fetch or delegated build) instead of planning.
func TestClusterBuildsOnce(t *testing.T) {
	nodes := newTestCluster(t, 3)
	req := PlanRequest{Ratio: "1:2:5:8", Demand: 12, Scheduler: "MMS"}
	for _, nd := range nodes {
		var resp PlanResponse
		if code := post(t, nd.ts.URL+"/v1/plan", req, &resp); code != http.StatusOK {
			t.Fatalf("%s: status %d", nd.id, code)
		}
		if resp.Emitted < req.Demand {
			t.Fatalf("%s: emitted %d < %d", nd.id, resp.Emitted, req.Demand)
		}
	}
	waitPublishes(nodes)
	if b := totalBuilds(nodes); b != 1 {
		t.Fatalf("fleet-wide cold builds = %d, want 1", b)
	}
	// Every node is now warm: another full round adds no builds, and a plan
	// served from a tier is never published again — no replica pushes, no
	// warm-tier writes anywhere in the fleet.
	obs.Enable(obs.Options{})
	t.Cleanup(obs.Disable)
	pushed, puts := obs.Counter("server.artifact.pushed"), obs.Counter("artifact.disk.puts")
	for round := 0; round < 3; round++ {
		for _, nd := range nodes {
			if code := post(t, nd.ts.URL+"/v1/plan", req, nil); code != http.StatusOK {
				t.Fatalf("%s warm: status %d", nd.id, code)
			}
		}
	}
	waitPublishes(nodes)
	if b := totalBuilds(nodes); b != 1 {
		t.Fatalf("warm round rebuilt: fleet-wide builds = %d, want 1", b)
	}
	if d := obs.Counter("server.artifact.pushed") - pushed; d != 0 {
		t.Fatalf("warm repeats pushed %d artifacts, want 0", d)
	}
	if d := obs.Counter("artifact.disk.puts") - puts; d != 0 {
		t.Fatalf("warm repeats wrote %d artifacts to the warm tiers, want 0", d)
	}
}

// TestClusterStreamSharesPlans: /v1/stream rides the same artifact tier.
func TestClusterStreamSharesPlans(t *testing.T) {
	nodes := newTestCluster(t, 2)
	req := PlanRequest{Ratio: "2:1:1:1:1:1:9", Demand: 20, Scheduler: "SRS"}
	for _, nd := range nodes {
		var resp StreamResponse
		if code := post(t, nd.ts.URL+"/v1/stream", req, &resp); code != http.StatusOK {
			t.Fatalf("%s: status %d", nd.id, code)
		}
		if len(resp.Emissions) == 0 {
			t.Fatalf("%s: no emissions", nd.id)
		}
	}
	waitPublishes(nodes)
	if b := totalBuilds(nodes); b != 1 {
		t.Fatalf("fleet-wide cold builds = %d, want 1", b)
	}
}

// TestClusterArtifactRoundTrip: an artifact built on one node round-trips
// byte-identically through another node's PUT/GET endpoints.
func TestClusterArtifactRoundTrip(t *testing.T) {
	nodes := newTestCluster(t, 2)
	req := PlanRequest{Ratio: "1:2:5:8", Demand: 8}
	data := buildArtifact(t, nodes[0], req)
	a, err := artifact.DecodeVerified(data)
	if err != nil {
		t.Fatal(err)
	}
	addr := a.Address()

	if code := putArtifact(t, nodes[1], addr, data); code != http.StatusNoContent {
		t.Fatalf("PUT status %d, want 204", code)
	}
	got, code := getArtifact(t, nodes[1], addr)
	if code != http.StatusOK || !bytes.Equal(got, data) {
		t.Fatalf("GET status %d, %d bytes, want 200 with %d bytes", code, len(got), len(data))
	}
	// The verified PUT also warmed node 1's plan cache: serving the plan
	// there must not build.
	if code := post(t, nodes[1].ts.URL+"/v1/plan", req, nil); code != http.StatusOK {
		t.Fatalf("plan status %d", code)
	}
	if b := nodes[1].cache.Stats().Builds; b != 0 {
		t.Fatalf("node-1 built %d plans despite adopted artifact", b)
	}
}

// TestClusterRejectsCorruptArtifacts: a flipped byte anywhere in a PUT body
// is refused with a typed 422 and never stored; GETting the address misses.
func TestClusterRejectsCorruptArtifacts(t *testing.T) {
	nodes := newTestCluster(t, 2)
	data := buildArtifact(t, nodes[0], PlanRequest{Ratio: "1:2:5:8", Demand: 8})
	a, err := artifact.DecodeVerified(data)
	if err != nil {
		t.Fatal(err)
	}
	addr := a.Address()

	corrupt := bytes.Clone(data)
	corrupt[len(corrupt)/2] ^= 0x40
	if code := putArtifact(t, nodes[1], addr, corrupt); code != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt PUT status %d, want 422", code)
	}
	// Valid bytes under the wrong address are equally refused.
	wrongAddr := "00" + addr[2:]
	if code := putArtifact(t, nodes[1], wrongAddr, data); code != http.StatusUnprocessableEntity {
		t.Fatalf("misaddressed PUT status %d, want 422", code)
	}
	if _, code := getArtifact(t, nodes[1], addr); code != http.StatusNotFound {
		t.Fatalf("GET after refused PUT = %d, want 404", code)
	}
	if nodes[1].store.Len() != 0 {
		t.Fatal("refused artifact reached the disk tier")
	}
}

// TestClusterRejectsWindowArtifact: a PUT whose plan schedule is a window
// of its forest (its first-task field patched past the last task in real
// artifact bytes, then resealed) is refused with a typed 422 and cached
// nowhere, so the plan the node then serves has its real makespan.
func TestClusterRejectsWindowArtifact(t *testing.T) {
	nodes := newTestCluster(t, 2)
	req := PlanRequest{Ratio: "2:1:1:1:1:1:9", Demand: 20}
	built := buildArtifact(t, nodes[0], req)
	a, err := artifact.DecodeVerified(built)
	if err != nil {
		t.Fatal(err)
	}
	cycles := a.Plan.Cycles
	data := windowArtifact(t, built, a.Plan, len(a.Plan.Slots()))
	if code := putArtifact(t, nodes[1], a.Address(), data); code != http.StatusUnprocessableEntity {
		t.Fatalf("window PUT status %d, want 422", code)
	}
	// Node 0 may replicate the real artifact to node 1 meanwhile; the
	// refused bytes must never be stored.
	if got, code := getArtifact(t, nodes[1], a.Address()); code == http.StatusOK && bytes.Equal(got, data) {
		t.Fatal("refused artifact reached the disk tier")
	}
	var resp PlanResponse
	if code := post(t, nodes[1].ts.URL+"/v1/plan", req, &resp); code != http.StatusOK {
		t.Fatalf("plan status %d", code)
	}
	if resp.TotalCycles != cycles || resp.Emitted != 20 {
		t.Fatalf("plan after refused PUT: %d cycles, %d emitted; want %d cycles, 20 emitted", resp.TotalCycles, resp.Emitted, cycles)
	}
}

// TestClusterRejectsNonChildArtifact: a PUT whose plan feeds a task from
// a spare of an equal-vector node that is not its base node's child (a
// real plan, rescheduled, recounted and resealed, whose vectors all check)
// is refused with a typed 422 and stored nowhere: the error intervals the
// node serves for a plan hold only for the forests the lemma covers.
func TestClusterRejectsNonChildArtifact(t *testing.T) {
	nodes := newTestCluster(t, 2)
	g, err := core.MM.Build(protocols.Table2()[0].Ratio)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := forest.BuildPacked(new(forest.PackedBuilder), g, 20)
	if err != nil {
		t.Fatal(err)
	}
	vecs, formed := g.Vectors(), pf.Materialize()
	reroute := func() bool {
		for j := range pf.Tasks {
			for k, src := range pf.Tasks[j].In {
				for q := 0; q < j && src.Kind() == forest.FromTask; q++ {
					if v, child := pf.Tasks[q].Base, pf.Tasks[src.Ref()].Base; v != child && vecs[v].Equal(vecs[child]) && formed.Tasks[q].FreeOutputs() > 0 {
						pf.Tasks[j].In[k] = forest.TaskSource(int32(q))
						return true
					}
				}
			}
		}
		return false
	}
	rerouted := reroute()
	f := pf.Materialize()
	s, err := sched.MMS(f, 4)
	if err != nil || !rerouted {
		t.Fatalf("test premise: rerouted %v, MMS err %v", rerouted, err)
	}
	k := plancache.KeyFor(g, 20, 4, "MMS", plancache.PristinePolicy)
	data, err := artifact.Encode(k, plancache.NewPlan(f, s))
	if err != nil {
		t.Fatal(err)
	}
	if code := putArtifact(t, nodes[1], artifact.AddressFor(k), data); code != http.StatusUnprocessableEntity {
		t.Fatalf("non-child PUT status %d, want 422", code)
	}
	if nodes[1].store.Len() != 0 {
		t.Fatal("refused artifact reached the disk tier")
	}
}

// TestClusterOwnerDownFallsBackLocal: with every peer unreachable, a
// follower still serves the plan by building locally — peer failure costs
// latency, never availability.
func TestClusterOwnerDownFallsBackLocal(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	dead.Close() // connection refused from here on

	cn, err := cluster.NewNode(cluster.Config{
		Self:    "live",
		Peers:   []cluster.Peer{{ID: "dead-1", URL: dead.URL}, {ID: "dead-2", URL: dead.URL}},
		Timeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	cache := plancache.New(16)
	st, err := artifact.OpenStore(t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{PlanCache: cache, Artifacts: st, Cluster: cn})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Across several distinct keys at least one hashes to a dead owner; all
	// must still serve 200.
	for d := 4; d <= 12; d += 2 {
		req := PlanRequest{Ratio: "1:2:5:8", Demand: d}
		if code := post(t, ts.URL+"/v1/plan", req, nil); code != http.StatusOK {
			t.Fatalf("demand %d: status %d with owners down", d, code)
		}
	}
	srv.WaitPublish()
	if b := cache.Stats().Builds; b != 5 {
		t.Fatalf("local builds = %d, want 5 (one per key)", b)
	}
	// The artifacts still landed in the local warm tier.
	if st.Len() != 5 {
		t.Fatalf("warm tier holds %d artifacts, want 5", st.Len())
	}
}

// TestClusterDiskTierSurvivesCacheLoss: a plan evicted from (or never in)
// the LRU is re-served from the node's own disk tier without a rebuild.
func TestClusterDiskTierSurvivesCacheLoss(t *testing.T) {
	nodes := newTestCluster(t, 1) // single node: no peers, just the disk tier
	req := PlanRequest{Ratio: "1:2:5:8", Demand: 12}
	if code := post(t, nodes[0].ts.URL+"/v1/plan", req, nil); code != http.StatusOK {
		t.Fatalf("cold: status %d", code)
	}
	nodes[0].srv.WaitPublish()
	if nodes[0].store.Len() != 1 {
		t.Fatalf("disk tier holds %d artifacts, want 1", nodes[0].store.Len())
	}
	nodes[0].cache.Purge() // simulate LRU loss (eviction / restart)
	if code := post(t, nodes[0].ts.URL+"/v1/plan", req, nil); code != http.StatusOK {
		t.Fatalf("after purge: status %d", code)
	}
	if b := nodes[0].cache.Stats().Builds; b != 1 {
		t.Fatalf("builds = %d, want 1 (disk promotion, not rebuild)", b)
	}
}

// TestBuildEndpointRejectsStatefulRequests: /v1/artifact/build only takes
// stateless storage-unlimited plans (anything else is not content-addressable).
func TestBuildEndpointRejectsStatefulRequests(t *testing.T) {
	nodes := newTestCluster(t, 1)
	for _, req := range []PlanRequest{
		{Ratio: "1:2:5:8", Demand: 8, Session: "s1"},
		{Ratio: "1:2:5:8", Demand: 8, Storage: 3},
	} {
		if code := post(t, nodes[0].ts.URL+"/v1/artifact/build", req, nil); code != http.StatusBadRequest {
			t.Fatalf("build(%+v) status %d, want 400", req, code)
		}
	}
}

// TestArtifactEndpointsDisabledWithoutStore: a plain server answers the
// artifact endpoints with 501, not a panic.
func TestArtifactEndpointsDisabledWithoutStore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	addr := "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	resp, err := http.Get(ts.URL + "/v1/artifact/" + addr)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("GET status %d, want 501", resp.StatusCode)
	}
}

// buildArtifact asks a node's build endpoint for the encoded artifact.
func buildArtifact(t *testing.T, nd *clusterNode, req PlanRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(nd.ts.URL+"/v1/artifact/build", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("build: status %d, err %v, body %q", resp.StatusCode, err, data)
	}
	return data
}

func putArtifact(t *testing.T, nd *clusterNode, addr string, data []byte) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, nd.ts.URL+"/v1/artifact/"+addr, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func getArtifact(t *testing.T, nd *clusterNode, addr string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(nd.ts.URL + "/v1/artifact/" + addr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data, resp.StatusCode
}

// windowArtifact rewrites the schedule section of data, the artifact of p,
// to start at task first and reseals it: the wire form of a persistent
// window, which no encoder writes.
func windowArtifact(t *testing.T, data []byte, p *plancache.Plan, first int) []byte {
	t.Helper()
	head := binary.AppendUvarint(nil, uint64(len(p.Algorithm())))
	head = append(head, p.Algorithm()...)
	head = binary.AppendUvarint(head, uint64(p.Mixers))
	head = binary.AppendUvarint(head, uint64(p.Cycles))
	head = append(head, 0) // the first scheduled task
	section := binary.AppendUvarint(head[:len(head):len(head)], uint64(len(p.Slots())))
	payload := data[:len(data)-sha256.Size]
	at := bytes.Index(payload, section)
	if at < 0 || bytes.Count(payload, section) != 1 {
		t.Fatal("schedule section not found once in the artifact")
	}
	out := append([]byte(nil), payload[:at+len(head)-1]...)
	out = binary.AppendUvarint(out, uint64(first))
	out = append(out, payload[at+len(head):]...)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}
