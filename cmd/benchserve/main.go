// Command benchserve load-tests the dmfbd serving core in-process: it boots
// the internal/server handler on a loopback listener, drives each scenario
// at a fixed concurrency, and writes latency/throughput percentiles to a
// JSON record (results/bench_serve.json; see EXPERIMENTS.md §E9).
//
// Scenarios:
//
//	plan-hot   identical stateless /v1/plan requests — the single-flight +
//	           plan-cache fast path (what a dashboard hammering one assay
//	           sees)
//	plan-cold  distinct (ratio, demand) pairs — uncached planning
//	stream     storage-limited multi-pass /v1/stream plans
//	execute    small /v1/execute cyberphysical runs, zero fault rate
//	session    session-routed plans extending shared timelines
//
// Fleet scenarios (EXPERIMENTS.md §E11) boot a second server around a
// simulated chip fleet and drive POST /v1/assay:
//
//	assay-healthy    every chip at base fault rate zero
//	assay-churn      25% of the fleet degraded (elevated fault rate, one dead
//	                 mixer each) — the scheduler must route around them; the
//	                 run fails unless churn throughput stays above
//	                 -churn-floor of the healthy run
//	assay-saturated  the churn fleet driven past its placement capacity —
//	                 the load-aware tie-break must admit overflow onto the
//	                 degraded chips (fleet.overflow_admissions > 0) instead
//	                 of queueing everything behind the healthy ones
//
// The cluster scenario (EXPERIMENTS.md §E12) boots several dmfbd nodes in
// one process, each with an isolated plan cache and warm disk artifact tier,
// joined through a consistent-hash ring. A shared key space is driven
// round-robin across the nodes; because cold plans resolve through the
// content-addressed artifact tier (disk, then the ring owner's build,
// exactly once fleet-wide), aggregate cold builds must stay within
// -cluster-build-ratio of the distinct key count — not keys × nodes — and a
// warm cross-node artifact adoption must beat a cold local build.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/ratio"
	"repro/internal/runtime"
	"repro/internal/server"
)

type scenarioResult struct {
	Requests    int     `json:"requests"`
	Concurrency int     `json:"concurrency"`
	Errors      int     `json:"errors"`
	Seconds     float64 `json:"seconds"`
	RPS         float64 `json:"rps"`
	P50Ms       float64 `json:"p50_ms"`
	P90Ms       float64 `json:"p90_ms"`
	P99Ms       float64 `json:"p99_ms"`
	MaxMs       float64 `json:"max_ms"`
}

type record struct {
	Generated   string                    `json:"generated"`
	MaxInFlight int                       `json:"max_inflight"`
	Scenarios   map[string]scenarioResult `json:"scenarios"`
	Counters    map[string]int64          `json:"obs_counters"`
	// Fleet churn experiment (E11): churn RPS over healthy RPS. The run
	// aborts below -churn-floor, so a committed record always holds a
	// passing ratio.
	FleetChips           int     `json:"fleet_chips,omitempty"`
	DegradedChips        int     `json:"degraded_chips,omitempty"`
	ChurnThroughputRatio float64 `json:"churn_throughput_ratio,omitempty"`
	// Saturated-fleet experiment (E11): overflow admissions prove degraded
	// chips absorb load once every healthy chip is busy and a queue forms.
	SaturatedOverflowAdmissions int64 `json:"saturated_overflow_admissions,omitempty"`
	// Multi-node cluster experiment (E12): fleet-wide cold builds over
	// distinct plan keys (1.0 is perfect single-flight; nodes× means the
	// artifact tier did nothing), plus the cold-build vs warm cross-node
	// adoption latency comparison.
	ClusterNodes        int     `json:"cluster_nodes,omitempty"`
	ClusterDistinctKeys int     `json:"cluster_distinct_keys,omitempty"`
	ClusterColdBuilds   int64   `json:"cluster_cold_builds,omitempty"`
	ClusterBuildRatio   float64 `json:"cluster_build_ratio,omitempty"`
	ClusterColdMs       float64 `json:"cluster_cold_ms,omitempty"`
	ClusterWarmMs       float64 `json:"cluster_warm_ms,omitempty"`
	// Membership-churn experiment: one ring member is decommissioned (its
	// sessions migrated to their new owners) and killed mid-run. The run
	// aborts unless every session continues bit-identically on its new owner
	// (zero lost batches), every published artifact stays servable without a
	// rebuild, and background traffic at the survivors sees zero errors.
	ChurnNodes            int   `json:"churn_nodes,omitempty"`
	ChurnSessions         int   `json:"churn_sessions,omitempty"`
	ChurnMigratedSessions int   `json:"churn_migrated_sessions,omitempty"`
	ChurnLostBatches      int   `json:"churn_lost_batches"`
	ChurnArtifactRebuilds int64 `json:"churn_artifact_rebuilds"`
	ChurnBackgroundReqs   int64 `json:"churn_background_requests,omitempty"`
	ChurnBackgroundErrors int64 `json:"churn_background_errors"`
}

func main() {
	var (
		requests    = flag.Int("requests", 2000, "requests per scenario")
		concurrency = flag.Int("concurrency", 64, "concurrent clients per scenario")
		maxInflight = flag.Int("max-inflight", 64, "server admission slots")
		out         = flag.String("out", "results/bench_serve.json", "output JSON path")
		assayReqs   = flag.Int("assay-requests", 400, "requests per fleet scenario (0 skips fleet scenarios)")
		fleetChips  = flag.Int("fleet-chips", 8, "simulated chips in the fleet scenarios")
		churnFloor  = flag.Float64("churn-floor", 0.70, "minimum churn/healthy throughput ratio")
		clusterReqs = flag.Int("cluster-requests", 1500, "requests in the multi-node scenario (0 skips it)")
		clusterN    = flag.Int("cluster-nodes", 3, "dmfbd nodes in the multi-node scenario")
		clusterKeys = flag.Int("cluster-keys", 60, "distinct plan keys shared across the cluster")
		clusterMax  = flag.Float64("cluster-build-ratio", 1.2, "maximum fleet-wide cold builds per distinct key")
		churnSess   = flag.Int("churn-sessions", 12, "sessions in the membership-churn scenario (0 skips it)")
	)
	flag.Parse()

	obs.Enable(obs.Options{})
	defer obs.Disable()

	srv := server.New(server.Config{
		MaxInFlight: *maxInflight,
		MaxQueue:    *requests, // the bench supplies its own backpressure
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	ratios := []string{"1:1", "1:3", "1:7", "3:5:8", "2:1:1:1:1:1:9", "7:9", "1:2:5", "5:11", "9:23", "3:13"}
	scenarios := []struct {
		name string
		body func(i int) (path string, payload map[string]any)
	}{
		{"plan-hot", func(i int) (string, map[string]any) {
			return "/v1/plan", map[string]any{"ratio": "2:1:1:1:1:1:9", "demand": 20, "scheduler": "SRS"}
		}},
		{"plan-cold", func(i int) (string, map[string]any) {
			return "/v1/plan", map[string]any{"ratio": ratios[i%len(ratios)], "demand": 2 + 2*(i%50)}
		}},
		{"stream", func(i int) (string, map[string]any) {
			return "/v1/stream", map[string]any{"ratio": ratios[i%len(ratios)], "demand": 16, "storage": 4, "scheduler": "SRS"}
		}},
		{"execute", func(i int) (string, map[string]any) {
			return "/v1/execute", map[string]any{"ratio": ratios[i%len(ratios)], "demand": 2}
		}},
		{"plan-heavy", func(i int) (string, map[string]any) {
			// One expensive storage-limited plan requested by everyone at
			// once: the first client leads, concurrent duplicates coalesce
			// onto its flight, stragglers hit the plan cache.
			return "/v1/plan", map[string]any{"ratio": "2:1:1:1:1:1:9", "demand": 600, "storage": 4, "scheduler": "SRS"}
		}},
		{"session", func(i int) (string, map[string]any) {
			// The session pins its configuration, so the ratio must be a
			// function of the session name.
			j := i % 16
			return "/v1/plan", map[string]any{"ratio": ratios[j%len(ratios)], "demand": 4,
				"session": fmt.Sprintf("bench-%d", j)}
		}},
	}

	rec := record{
		Generated:   time.Now().UTC().Format(time.RFC3339),
		MaxInFlight: *maxInflight,
		Scenarios:   map[string]scenarioResult{},
		Counters:    map[string]int64{},
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: *concurrency}}
	if *requests > 0 {
		for _, sc := range scenarios {
			res := drive(client, base, *requests, *concurrency, sc.body)
			rec.Scenarios[sc.name] = res
			fmt.Printf("%-10s %6d req @ %3d conc: %8.1f req/s  p50 %6.2fms  p90 %6.2fms  p99 %6.2fms  (%d errors)\n",
				sc.name, res.Requests, res.Concurrency, res.RPS, res.P50Ms, res.P90Ms, res.P99Ms, res.Errors)
			if res.Errors > 0 {
				log.Fatalf("scenario %s had %d errors", sc.name, res.Errors)
			}
		}
	}
	if *assayReqs > 0 {
		// Each fleet run gets its own server and fleet so wear, residue and
		// breaker state never leak from the healthy run into the churn run.
		runFleet := func(name string, degraded int, faultRate float64, conc, reqs, demand, storageDemand int) scenarioResult {
			// A tight recovery budget makes degraded chips fail for real
			// (budget overruns → ErrUnrecoverable → breaker + reassignment)
			// instead of the runtime's recovery ladder absorbing every fault;
			// healthy chips run fault-free and never touch the budget.
			fl := fleet.New(fleet.Config{
				Chips:         fleet.DefaultChips(*fleetChips),
				Policy:        runtime.Policy{RecoveryBudget: 4},
				MaxQueue:      reqs, // saturation should queue at the fleet, not 429
				StorageDemand: storageDemand,
			})
			// A degraded chip is genuinely unreliable — a fault rate high
			// enough to overrun the recovery budget on some runs, so the
			// scheduler sees real unrecoverable failures, breaker opens and
			// reassignments, not just slowdown — and is down one mixer.
			for i, h := 0, fl.Health(); i < degraded && i < len(h); i++ {
				if err := fl.DegradeChip(h[i].Name, faultRate, 1); err != nil {
					log.Fatal(err)
				}
			}
			fsrv := server.New(server.Config{
				MaxInFlight: conc, // admit the whole client pool; the fleet queues
				MaxQueue:    reqs,
				Fleet:       fl,
			})
			fln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				log.Fatal(err)
			}
			fhs := &http.Server{Handler: fsrv.Handler()}
			go fhs.Serve(fln)
			defer fhs.Close()
			res := drive(client, "http://"+fln.Addr().String(), reqs, conc,
				func(i int) (string, map[string]any) {
					return "/v1/assay", map[string]any{
						"ratio":  ratios[i%len(ratios)],
						"demand": demand,
						"class":  fmt.Sprintf("class-%d", i%3),
					}
				})
			rec.Scenarios[name] = res
			fmt.Printf("%-13s %6d req @ %3d conc: %8.1f req/s  p50 %6.2fms  p90 %6.2fms  p99 %6.2fms  (%d errors)\n",
				name, res.Requests, res.Concurrency, res.RPS, res.P50Ms, res.P90Ms, res.P99Ms, res.Errors)
			if res.Errors > 0 {
				log.Fatalf("scenario %s had %d errors", name, res.Errors)
			}
			return res
		}
		degraded := *fleetChips / 4
		healthy := runFleet("assay-healthy", 0, 0, *concurrency, *assayReqs, 4, 0)
		churn := runFleet("assay-churn", degraded, 0.5, *concurrency, *assayReqs, 4, 0)
		rec.FleetChips = *fleetChips
		rec.DegradedChips = degraded
		rec.ChurnThroughputRatio = churn.RPS / healthy.RPS
		fmt.Printf("churn throughput ratio: %.3f (floor %.2f, %d/%d chips degraded)\n",
			rec.ChurnThroughputRatio, *churnFloor, degraded, *fleetChips)
		if rec.ChurnThroughputRatio < *churnFloor {
			log.Fatalf("churn throughput ratio %.3f below floor %.2f",
				rec.ChurnThroughputRatio, *churnFloor)
		}
		// Saturation run (E11): the HTTP path adds ~20ms of client/transport
		// latency per request — far more than a small assay's sub-millisecond
		// execution — so no loopback client pool can hold a placement queue
		// open. This scenario therefore drives fleet.Run directly: every
		// worker goroutine sits in the fleet's admission path at once, the
		// placement queue stays standing, and the load-aware tie-break must
		// admit the overflow onto the degraded chips instead of idling them
		// behind the healthy ones. The degradation is mild (worn, not broken:
		// chips stay off-breaker) so the run isolates the admission decision,
		// not the recovery ladder.
		overflowBefore := obs.Counter("fleet.overflow_admissions")
		satRes, satFleet := runSaturated(*fleetChips, degraded, 8**fleetChips, *assayReqs, ratios)
		rec.Scenarios["assay-saturated"] = satRes
		fmt.Printf("%-13s %6d req @ %3d conc: %8.1f req/s  p50 %6.2fms  p90 %6.2fms  p99 %6.2fms  (%d errors)\n",
			"assay-saturated", satRes.Requests, satRes.Concurrency, satRes.RPS, satRes.P50Ms, satRes.P90Ms, satRes.P99Ms, satRes.Errors)
		if satRes.Errors > 0 {
			log.Fatalf("scenario assay-saturated had %d errors", satRes.Errors)
		}
		rec.SaturatedOverflowAdmissions = obs.Counter("fleet.overflow_admissions") - overflowBefore
		degradedAssays := 0
		for i, h := range satFleet.Health() {
			if i < degraded {
				degradedAssays += h.AssaysRun
			}
		}
		fmt.Printf("saturated overflow admissions: %d, assays on degraded chips: %d\n",
			rec.SaturatedOverflowAdmissions, degradedAssays)
		if degraded > 0 && (rec.SaturatedOverflowAdmissions == 0 || degradedAssays == 0) {
			log.Fatal("assay-saturated: degraded chips idled under a standing queue")
		}
	}
	if *clusterReqs > 0 {
		runCluster(client, &rec, *clusterReqs, *concurrency, *clusterN, *clusterKeys, *maxInflight, ratios, *clusterMax)
	}
	if *churnSess > 0 {
		runChurn(client, &rec, *clusterN, *churnSess, *maxInflight, ratios)
	}
	for _, c := range []string{"server.requests", "server.flights.coalesced", "plancache.hits",
		"plancache.misses", "plancache.builds", "server.sessions.created", "server.admission.queued",
		"fleet.assays", "fleet.assays_failed", "fleet.reassignments", "fleet.washes", "fleet.saturated",
		"fleet.breaker_opens", "fleet.overflow_admissions", "wal.appends", "wal.fsyncs",
		"server.artifact.remote_builds", "server.artifact.disk_promotions", "server.artifact.pushed",
		"cluster.fetch.ok", "cluster.build.ok", "artifact.disk.hits", "artifact.disk.puts"} {
		rec.Counters[c] = obs.Counter(c)
	}

	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		log.Fatal(err)
	}
	buf, _ := json.MarshalIndent(rec, "", "  ")
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote", *out)
}

// runCluster boots an in-process multi-node dmfbd fleet (isolated plan
// caches, per-node disk artifact tiers, one consistent-hash ring) and proves
// the distributed tier's two claims: a shared key space driven across every
// node costs roughly one cold build per distinct key fleet-wide (not per
// node), and adopting a warm artifact from a peer is cheaper than building
// cold.
func runCluster(client *http.Client, rec *record, reqs, conc, nNodes, keys, maxInflight int, ratios []string, buildRatioMax float64) {
	type benchNode struct {
		cache *plancache.Cache
		store *artifact.Store
		srv   *server.Server
		url   string
	}
	nodes := make([]*benchNode, nNodes)
	lns := make([]net.Listener, nNodes)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		lns[i] = ln
		nodes[i] = &benchNode{url: "http://" + ln.Addr().String()}
	}
	for i, nd := range nodes {
		var peers []cluster.Peer
		for j, other := range nodes {
			if j != i {
				peers = append(peers, cluster.Peer{ID: fmt.Sprintf("node-%d", j), URL: other.url})
			}
		}
		cn, err := cluster.NewNode(cluster.Config{Self: fmt.Sprintf("node-%d", i), Peers: peers})
		if err != nil {
			log.Fatal(err)
		}
		dir, err := os.MkdirTemp("", "benchserve-artifacts-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		nd.cache = plancache.New(4 * keys)
		if nd.store, err = artifact.OpenStore(dir, 4*keys); err != nil {
			log.Fatal(err)
		}
		nd.srv = server.New(server.Config{
			MaxInFlight: maxInflight,
			MaxQueue:    reqs,
			PlanCache:   nd.cache,
			Artifacts:   nd.store,
			Cluster:     cn,
		})
		hs := &http.Server{Handler: nd.srv.Handler()}
		go hs.Serve(lns[i])
		defer hs.Close()
	}

	// The shared key space, driven round-robin: request i carries key i%keys
	// to node i%nNodes, so every node serves every key.
	res := drive(client, "", reqs, conc, func(i int) (string, map[string]any) {
		k := i % keys
		return nodes[i%nNodes].url + "/v1/plan", map[string]any{
			"ratio": ratios[k%len(ratios)], "demand": 2 + 2*(k/len(ratios)),
		}
	})
	rec.Scenarios["cluster"] = res
	fmt.Printf("%-10s %6d req @ %3d conc: %8.1f req/s  p50 %6.2fms  p90 %6.2fms  p99 %6.2fms  (%d errors)\n",
		"cluster", res.Requests, res.Concurrency, res.RPS, res.P50Ms, res.P90Ms, res.P99Ms, res.Errors)
	if res.Errors > 0 {
		log.Fatalf("scenario cluster had %d errors", res.Errors)
	}
	for _, nd := range nodes {
		nd.srv.WaitPublish()
	}
	var builds int64
	for _, nd := range nodes {
		builds += nd.cache.Stats().Builds
	}
	ratio := float64(builds) / float64(keys)
	rec.ClusterNodes = nNodes
	rec.ClusterDistinctKeys = keys
	rec.ClusterColdBuilds = builds
	rec.ClusterBuildRatio = ratio
	fmt.Printf("cluster cold builds: %d over %d distinct keys across %d nodes (ratio %.2f, max %.2f)\n",
		builds, keys, nNodes, ratio, buildRatioMax)
	if ratio > buildRatioMax {
		log.Fatalf("cluster build ratio %.2f exceeds %.2f — the artifact tier is not deduplicating builds",
			ratio, buildRatioMax)
	}

	// Cold-vs-warm probes over fresh keys: the first request anywhere pays
	// the build; after the artifact propagates, a different node serves the
	// same key by fetching and verifying the owner's artifact.
	timed := func(url string, payload map[string]any) float64 {
		buf, _ := json.Marshal(payload)
		t0 := time.Now()
		resp, err := client.Post(url+"/v1/plan", "application/json", bytes.NewReader(buf))
		if err != nil {
			log.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("cluster probe: status %d", resp.StatusCode)
		}
		return float64(time.Since(t0).Microseconds()) / 1000
	}
	const probes = 40
	var coldMs, warmMs float64
	for j := 0; j < probes; j++ {
		payload := map[string]any{"ratio": "2:1:1:1:1:1:9", "demand": 200 + 2*j, "scheduler": "SRS"}
		coldMs += timed(nodes[j%nNodes].url, payload)
		for _, nd := range nodes {
			nd.srv.WaitPublish()
		}
		warmMs += timed(nodes[(j+1)%nNodes].url, payload)
	}
	rec.ClusterColdMs = coldMs / probes
	rec.ClusterWarmMs = warmMs / probes
	fmt.Printf("cluster cold build %.3fms vs warm cross-node adoption %.3fms per plan\n",
		rec.ClusterColdMs, rec.ClusterWarmMs)
	if rec.ClusterWarmMs >= rec.ClusterColdMs {
		log.Fatalf("warm cross-node adoption (%.3fms) not faster than cold build (%.3fms)",
			rec.ClusterWarmMs, rec.ClusterColdMs)
	}
}

// runChurn boots an in-process multi-node fleet and takes one member out of
// the ring mid-run: its resident sessions are migrated to their new owners
// (POST /v1/session/{id}/migrate), the survivors drop it from their rings
// (POST /v1/cluster/members), and its listener is closed — the in-process
// stand-in for a kill. The invariants gate the record:
//
//   - every session's next batch lands exactly one cycle after everything the
//     client was acked (the migrated replay was bit-identical, nothing lost);
//   - a session request at the wrong survivor redirects to the holder and
//     still continues the same timeline;
//   - every artifact published before the churn stays servable by the
//     survivors without a single rebuild (the replica fan-out covered it);
//   - background stateless traffic at the survivors sees zero errors through
//     the whole membership change.
//
// (The process-level sibling — SIGKILL the owner mid-stream, recover from
// the WAL, migrate — is `make chaos-migrate-smoke`.)
func runChurn(client *http.Client, rec *record, nNodes, nSessions, maxInflight int, ratios []string) {
	type churnNode struct {
		id    string
		cache *plancache.Cache
		store *artifact.Store
		srv   *server.Server
		url   string
		hs    *http.Server
	}
	nodes := make([]*churnNode, nNodes)
	lns := make([]net.Listener, nNodes)
	ids := make([]string, nNodes)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		lns[i] = ln
		ids[i] = fmt.Sprintf("churn-node-%d", i)
		nodes[i] = &churnNode{id: ids[i], url: "http://" + ln.Addr().String()}
	}
	urlOf := map[string]*churnNode{}
	for i, nd := range nodes {
		var peers []cluster.Peer
		for j, other := range nodes {
			if j != i {
				peers = append(peers, cluster.Peer{ID: other.id, URL: other.url})
			}
		}
		cn, err := cluster.NewNode(cluster.Config{Self: nd.id, Peers: peers})
		if err != nil {
			log.Fatal(err)
		}
		dir, err := os.MkdirTemp("", "benchserve-churn-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		nd.cache = plancache.New(256)
		if nd.store, err = artifact.OpenStore(dir, 256); err != nil {
			log.Fatal(err)
		}
		nd.srv = server.New(server.Config{
			MaxInFlight: maxInflight,
			MaxQueue:    1024,
			PlanCache:   nd.cache,
			Artifacts:   nd.store,
			Cluster:     cn,
		})
		nd.hs = &http.Server{Handler: nd.srv.Handler()}
		go nd.hs.Serve(lns[i])
		defer nd.hs.Close()
		urlOf[nd.id] = nd
	}
	victim, survivors := nodes[nNodes-1], nodes[:nNodes-1]
	ring := cluster.NewRing(ids)

	type planReply struct {
		StartCycle  int    `json:"start_cycle"`
		TotalCycles int    `json:"total_cycles"`
		Error       string `json:"error"`
	}
	plan := func(url string, payload map[string]any) planReply {
		buf, _ := json.Marshal(payload)
		resp, err := client.Post(url+"/v1/plan", "application/json", bytes.NewReader(buf))
		if err != nil {
			log.Fatal(err)
		}
		var out planReply
		jerr := json.NewDecoder(resp.Body).Decode(&out)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if jerr != nil {
			log.Fatalf("churn: decode plan reply: %v", jerr)
		}
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("churn: plan status %d: %s", resp.StatusCode, out.Error)
		}
		return out
	}

	// Acked session work, every batch on its ring owner. Name generation
	// continues until the victim owns at least one session — otherwise the
	// churn would not move anything.
	type churnSession struct {
		name    string
		owner   string
		elapsed int
	}
	var sessions []*churnSession
	victimOwns := 0
	for i := 0; len(sessions) < nSessions || victimOwns == 0; i++ {
		name := fmt.Sprintf("churn-s-%d", i)
		owner := ring.Owner("session|" + name)
		if len(sessions) >= nSessions && owner != victim.id {
			continue
		}
		if owner == victim.id {
			victimOwns++
		}
		sessions = append(sessions, &churnSession{name: name, owner: owner})
	}
	sessionBatch := func(cs *churnSession, url string) {
		r := plan(url, map[string]any{"ratio": "2:1:1:1:1:1:9", "demand": 8, "scheduler": "SRS", "session": cs.name})
		if r.StartCycle != cs.elapsed+1 {
			rec.ChurnLostBatches++
			log.Printf("churn: session %s batch starts at %d, want %d", cs.name, r.StartCycle, cs.elapsed+1)
		}
		cs.elapsed = r.StartCycle + r.TotalCycles - 1
	}
	for _, cs := range sessions {
		for b := 0; b < 3; b++ {
			sessionBatch(cs, urlOf[cs.owner].url)
		}
	}

	// Artifacts published before the churn — the replica fan-out must keep
	// every one servable after the victim is gone.
	const churnKeys = 8
	keyPayload := func(k int) map[string]any {
		return map[string]any{"ratio": ratios[k%len(ratios)], "demand": 100 + 2*k}
	}
	for k := 0; k < churnKeys; k++ {
		plan(nodes[k%nNodes].url, keyPayload(k))
	}
	for _, nd := range nodes {
		nd.srv.WaitPublish()
	}

	// Background stateless traffic at the survivors, running through the
	// whole membership change — availability during churn.
	stop := make(chan struct{})
	var bgReqs, bgErrs atomic.Int64
	var bg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		bg.Add(1)
		go func() {
			defer bg.Done()
			buf, _ := json.Marshal(map[string]any{"ratio": "2:1:1:1:1:1:9", "demand": 20, "scheduler": "SRS"})
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Post(survivors[(w+i)%len(survivors)].url+"/v1/plan", "application/json", bytes.NewReader(buf))
				bgReqs.Add(1)
				if err != nil {
					bgErrs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					bgErrs.Add(1)
				}
			}
		}()
	}

	// Decommission: ship every victim-resident session to its new owner,
	// drop the victim from the survivors' rings, then close its listener.
	newRing := ring.Without(victim.id)
	for _, cs := range sessions {
		if cs.owner != victim.id {
			continue
		}
		target := newRing.Owner("session|" + cs.name)
		resp, err := client.Post(victim.url+"/v1/session/"+cs.name+"/migrate?target="+target, "application/json", bytes.NewReader([]byte("{}")))
		if err != nil {
			log.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("churn: migrate %s to %s: status %d", cs.name, target, resp.StatusCode)
		}
		cs.owner = target
		rec.ChurnMigratedSessions++
	}
	for _, nd := range survivors {
		buf, _ := json.Marshal(map[string]any{"action": "leave", "id": victim.id})
		resp, err := client.Post(nd.url+"/v1/cluster/members", "application/json", bytes.NewReader(buf))
		if err != nil {
			log.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("churn: leave on %s: status %d", nd.id, resp.StatusCode)
		}
	}
	victim.hs.Close()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	bg.Wait()

	// Invariant 1: every session continues exactly where the client left it,
	// served by its (possibly new) owner.
	for _, cs := range sessions {
		sessionBatch(cs, urlOf[cs.owner].url)
	}
	// Invariant 2: the wrong survivor redirects to the holder — still the
	// same timeline.
	for _, cs := range sessions {
		other := survivors[0]
		if other.id == cs.owner {
			other = survivors[len(survivors)-1]
		}
		sessionBatch(cs, other.url)
	}
	// Invariant 3: every pre-churn artifact serves from the survivors'
	// replica tiers without a rebuild (caches purged, so the disk/replica
	// rungs must answer).
	var buildsBefore int64
	for _, nd := range survivors {
		buildsBefore += nd.cache.Stats().Builds
		nd.cache.Purge()
	}
	for k := 0; k < churnKeys; k++ {
		plan(survivors[k%len(survivors)].url, keyPayload(k))
	}
	var buildsAfter int64
	for _, nd := range survivors {
		buildsAfter += nd.cache.Stats().Builds
	}
	rec.ChurnNodes = nNodes
	rec.ChurnSessions = len(sessions)
	rec.ChurnArtifactRebuilds = buildsAfter - buildsBefore
	rec.ChurnBackgroundReqs = bgReqs.Load()
	rec.ChurnBackgroundErrors = bgErrs.Load()
	fmt.Printf("churn: %d sessions (%d migrated off %s), %d lost batches, %d artifact rebuilds, %d background requests (%d errors)\n",
		len(sessions), rec.ChurnMigratedSessions, victim.id, rec.ChurnLostBatches,
		rec.ChurnArtifactRebuilds, rec.ChurnBackgroundReqs, rec.ChurnBackgroundErrors)
	if rec.ChurnLostBatches > 0 {
		log.Fatalf("churn: %d batches lost across the membership change", rec.ChurnLostBatches)
	}
	if rec.ChurnArtifactRebuilds > 0 {
		log.Fatalf("churn: %d artifacts had to be rebuilt after the member left", rec.ChurnArtifactRebuilds)
	}
	if rec.ChurnBackgroundErrors > 0 {
		log.Fatalf("churn: %d background requests failed during the membership change", rec.ChurnBackgroundErrors)
	}
}

// drive fires n requests at the given concurrency and aggregates latency.
func drive(client *http.Client, base string, n, concurrency int, body func(int) (string, map[string]any)) scenarioResult {
	lat := make([]float64, n)
	var errors atomic.Int32
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				path, payload := body(i)
				buf, _ := json.Marshal(payload)
				t0 := time.Now()
				resp, err := client.Post(base+path, "application/json", bytes.NewReader(buf))
				if err != nil {
					errors.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errors.Add(1)
				}
				lat[i] = float64(time.Since(t0).Microseconds()) / 1000
			}
		}()
	}
	wg.Wait()
	return summarize(lat, concurrency, int(errors.Load()), time.Since(start).Seconds())
}

// runSaturated floods a churn fleet with conc in-process assay runners —
// every worker sits in the fleet's admission path at once, so the placement
// queue stays standing for the whole run (see the E11 scenario comment).
func runSaturated(chips, degraded, conc, reqs int, ratios []string) (scenarioResult, *fleet.Fleet) {
	// An unbounded recovery budget and a mild fault rate keep the degraded
	// chips genuinely usable — the runtime's recovery ladder absorbs their
	// faults — so the scenario isolates the admission decision: does the
	// scheduler hand them work once a queue is standing?
	fl := fleet.New(fleet.Config{
		Chips:    fleet.DefaultChips(chips),
		MaxQueue: reqs,
	})
	for i, h := 0, fl.Health(); i < degraded && i < len(h); i++ {
		if err := fl.DegradeChip(h[i].Name, 0.05, 1); err != nil {
			log.Fatal(err)
		}
	}
	targets := make([]ratio.Ratio, len(ratios))
	for i, s := range ratios {
		t, err := ratio.Parse(s)
		if err != nil {
			log.Fatal(err)
		}
		targets[i] = t
	}
	// The runners share one plan cache, as the assays of one server do.
	cache := plancache.New(plancache.DefaultCapacity)
	lat := make([]float64, reqs)
	var errs atomic.Int32
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= reqs {
					return
				}
				t0 := time.Now()
				// Storage-limited streaming assays: many passes per run, so
				// each placement is held for several milliseconds and the
				// worker pool genuinely overlaps inside the fleet.
				_, err := fl.Run(context.Background(), fleet.AssaySpec{
					Target:    targets[i%len(targets)],
					Demand:    256,
					Storage:   4,
					Class:     fmt.Sprintf("class-%d", i%3),
					PlanCache: cache,
				})
				if err != nil {
					errs.Add(1)
				}
				lat[i] = float64(time.Since(t0).Microseconds()) / 1000
			}
		}()
	}
	wg.Wait()
	return summarize(lat, conc, int(errs.Load()), time.Since(start).Seconds()), fl
}

// summarize folds per-request latencies into the recorded percentiles.
func summarize(lat []float64, concurrency, errors int, elapsed float64) scenarioResult {
	n := len(lat)
	sort.Float64s(lat)
	pct := func(p float64) float64 {
		idx := int(p * float64(n-1))
		return lat[idx]
	}
	return scenarioResult{
		Requests:    n,
		Concurrency: concurrency,
		Errors:      errors,
		Seconds:     elapsed,
		RPS:         float64(n) / elapsed,
		P50Ms:       pct(0.50),
		P90Ms:       pct(0.90),
		P99Ms:       pct(0.99),
		MaxMs:       lat[n-1],
	}
}
