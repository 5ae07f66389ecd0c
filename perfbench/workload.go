package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/protocols"
	"repro/internal/server"
	"repro/internal/synth"
)

// request is one generated request. Every field is a pure function of the
// workload, the seed and the request's index in the sequence.
type request struct {
	Index   uint64
	Path    string // "/v1/plan" or "/v1/stream"
	Node    int    // index of the server the request is sent to
	Req     server.PlanRequest
	Body    []byte
	Session int // session number of a session batch, else -1
}

// workload generates an unbounded, deterministic request sequence.
type workload struct {
	name string
	why  string
	// gen returns request i of the sequence for the seed.
	gen func(seed, i uint64) request
	// sizes of the serving fleet the workload runs against.
	nodes     int
	warmReqs  int64 // requests in one warm-up step
	wal       bool
	fitsCache bool // every spec fits in the plan cache: steady means all hits
	sessions  int  // number of named sessions
	// sidePhase names a workload a traced run also drives, briefly, to
	// report the layers only that workload exercises.
	sidePhase string
	cacheCap  int                  // cluster-zipf: per-node plan-cache capacity
	tierCap   int                  // cluster-zipf: per-node artifact-tier capacity
	pool      []server.PlanRequest // cluster-zipf: the key pool, by popularity rank
}

// clustered reports whether the workload's nodes form one ring with
// artifact tiers (otherwise every node is an independent dmfbd).
func (w *workload) clustered() bool { return w.tierCap > 0 }

// rng is a splitmix64 stream; one is derived per (seed, index), so request i
// never depends on how many requests came before it.
type rng struct{ s uint64 }

func newRNG(seed, i uint64) *rng {
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ (i+1)*0xbf58476d1ce4e5b9}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// Sizes. They follow the serving defaults dmfbd runs with: a 1024-entry
// process plan cache, a 128-session pool, and (cluster) per-node tiers.
const (
	sessionCount     = 64   // within the 128-session pool, so nothing is evicted
	coldSessionEvery = 20   // plan-cold: one request in this many is a session batch
	clusterNodes     = 3    // one ring; replication fanout 2 puts every artifact on every node
	clusterCache     = 64   // per-node plan cache, below the tier so the disk rung serves
	clusterTier      = 128  // per-node artifact tier: every Store.Put scans all its entries
	clusterPool      = 3000 // distinct specs behind the Zipf draw
	clusterZipfS     = 1.1
	coldStorageFr    = 0.25 // plan-cold: storage-limited /v1/stream share
	coldErrAwareFr   = 0.10 // plan-cold: error_aware share
)

var (
	schedulers     = []string{"MMS", "SRS"}
	algorithms     = []string{"MM", "RMA", "MTCS"}
	hotDemands     = []int{2, 8, 16, 32, 64}
	sessionDemands = []int{2, 4, 8, 16}
	// coldStorage is the storage budget q' of storage-limited plan-cold
	// requests: every PaperDataset ratio fits a two-droplet pass in it
	// under every algorithm and scheduler, and demands past ~20 need
	// several passes.
	coldStorage = []int{6, 8}
)

// protocolRatios are the paper's named mixtures: Table 2 and the PCR
// running example.
func protocolRatios() []string {
	var out []string
	for _, p := range protocols.Table2() {
		out = append(out, p.Ratio.String())
	}
	return append(out, protocols.PCR16().Ratio.String())
}

func encodeRequest(r request) request {
	body, err := json.Marshal(r.Req)
	if err != nil {
		panic(err) // PlanRequest has no unmarshalable fields
	}
	r.Body = body
	return r
}

// workloads returns the benchmark's workloads by name.
func workloads() map[string]*workload {
	ratios := protocolRatios()
	paper := synth.PaperDataset()
	paperStr := make([]string, len(paper))
	for i, r := range paper {
		paperStr[i] = r.String()
	}

	hot := &workload{
		name:      "plan-hot",
		why:       "few dozen popular specs, all LRU hits: per-request serving cost only",
		nodes:     1,
		warmReqs:  10000,
		fitsCache: true,
		// A durable session log makes a workload measure the shared disk
		// more than the server (see CHANGES.md); plan-hot's traced runs
		// measure the WAL layer on session-wal traffic.
		sidePhase: "session-wal",
		gen: func(seed, i uint64) request {
			r := newRNG(seed, i)
			return encodeRequest(request{Index: i, Path: "/v1/plan", Session: -1, Req: server.PlanRequest{
				Ratio:     ratios[r.intn(len(ratios))],
				Demand:    hotDemands[r.intn(len(hotDemands))],
				Scheduler: schedulers[r.intn(len(schedulers))],
			}})
		},
	}

	cold := &workload{
		name:     "plan-cold",
		why:      "distinct PaperDataset specs past every cache: base graph, forest, schedule, audit, demand scan",
		nodes:    1,
		warmReqs: 2000,
		// A clustered server publishes every plan it serves, so a cluster
		// workload is bound by the shared disk and too unsteady to gate on
		// (see CHANGES.md); plan-cold's traced runs measure its layers.
		sidePhase: "cluster-zipf",
		gen: func(seed, i uint64) request {
			r := newRNG(seed, i)
			req := server.PlanRequest{
				Ratio:     paperStr[r.intn(len(paperStr))],
				Demand:    2 + r.intn(127),
				Scheduler: schedulers[r.intn(len(schedulers))],
			}
			alg := algorithms[r.intn(len(algorithms))]
			path := "/v1/plan"
			if r.float() < coldStorageFr {
				path = "/v1/stream"
				req.Storage = coldStorage[r.intn(len(coldStorage))]
			}
			if r.float() < coldErrAwareFr {
				req.ErrorAware = true
				req.SplitImbalance = 0.05
			} else {
				req.Algorithm = alg
			}
			return encodeRequest(request{Index: i, Path: path, Session: -1, Req: req})
		},
	}

	sess := &workload{
		name:      "session-wal",
		why:       "64 sessions extending timelines on cached plans: WAL fsyncs and the session pool",
		nodes:     1,
		warmReqs:  2000,
		wal:       true,
		fitsCache: true,
		sessions:  sessionCount,
		gen: func(seed, i uint64) request {
			r := newRNG(seed, i)
			return sessionBatch(i, r.intn(sessionCount), sessionDemands[r.intn(len(sessionDemands))], ratios)
		},
	}

	pool := clusterSpecs(paperStr, clusterPool)
	cdf := zipfCDF(clusterPool, clusterZipfS)
	clus := &workload{
		name:     "cluster-zipf",
		why:      "3-node ring, Zipf keys over tiers at capacity: LRU/disk/peer/build ladder and artifact.Store",
		nodes:    clusterNodes,
		warmReqs: 600,
		cacheCap: clusterCache,
		tierCap:  clusterTier,
		pool:     pool,
		gen: func(seed, i uint64) request {
			r := newRNG(seed, i)
			rank := sort.SearchFloat64s(cdf, r.float())
			if rank >= len(pool) {
				rank = len(pool) - 1
			}
			return encodeRequest(request{Index: i, Path: "/v1/plan", Node: int(i % clusterNodes), Session: -1, Req: pool[rank]})
		},
	}
	return map[string]*workload{hot.name: hot, cold.name: cold, sess.name: sess, clus.name: clus}
}

// workloadOrder is the order workloads are listed in. session-wal and
// cluster-zipf are not among BENCHMARK.json's workloads (see CHANGES.md):
// they run on their own for investigation, and as the side phases of
// traced plan-hot and plan-cold runs that measure their layers.
var workloadOrder = []string{"plan-hot", "plan-cold", "session-wal", "cluster-zipf"}

func sessionName(s int) string { return fmt.Sprintf("wal-%02d", s) }

// sessionBatch is request i when it extends session s by demand droplets.
// A session's configuration is fixed: protocol ratio and scheduler by s.
func sessionBatch(i uint64, s, demand int, ratios []string) request {
	return encodeRequest(request{Index: i, Path: "/v1/plan", Session: s, Req: server.PlanRequest{
		Ratio:     ratios[s%len(ratios)],
		Scheduler: schedulers[(s/len(ratios))%len(schedulers)],
		Session:   sessionName(s),
		Demand:    demand,
	}})
}

// clusterSpecs is the cluster-zipf key pool, ordered by popularity rank. It
// is fixed (not seeded): the seed draws the request order, so every seed
// sees the same mix of spec costs.
func clusterSpecs(ratios []string, n int) []server.PlanRequest {
	r := newRNG(0x5eed, 0)
	seen := map[string]bool{}
	out := make([]server.PlanRequest, 0, n)
	for len(out) < n {
		req := server.PlanRequest{
			Ratio:     ratios[r.intn(len(ratios))],
			Demand:    2 + r.intn(63),
			Algorithm: algorithms[r.intn(len(algorithms))],
			Scheduler: schedulers[r.intn(len(schedulers))],
		}
		k := fmt.Sprintf("%s|%d|%s|%s", req.Ratio, req.Demand, req.Algorithm, req.Scheduler)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, req)
	}
	return out
}

// zipfCDF returns the cumulative distribution of Zipf(s) over ranks 1..n.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), s)
		cdf[k-1] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}
