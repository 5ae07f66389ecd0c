package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/artifact"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/errormodel"
	"repro/internal/forest"
	"repro/internal/mixgraph"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/ratio"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wal"
)

// Calls the layer pass times whose work sibling calls already account for
// (core.new includes a base build on a base-cache miss; core.request is
// core.request_warm plus, on a miss, the build stages; stream.run is a
// whole cold plan). They are reported, but never summed into the
// handler-time attribution.
var compositeCalls = map[string]bool{"core.base_build": true, "core.request": true, "stream.run": true}

// layerPass replays a prefix of the generated requests through the public
// calls of each module, every call a child span of its request. It runs
// after the HTTP phase, on its own caches, store and log, so it never
// perturbs the servers.
type layerPass struct {
	tr    *tracer
	w     *workload
	store *artifact.Store
	log   *wal.Log
	pb    forest.PackedBuilder
	k     sched.Kernel
	cache *plancache.Cache
}

// runLayerPass replays rqs (with the servers' responses to them) and
// returns the spans it recorded. fill is the artifact-tier fill level of
// the servers, which the bench-owned store is brought to first.
func runLayerPass(tr *tracer, w *workload, dir string, fill int, rqs []request, resps []*server.StreamResponse) ([]span, error) {
	cacheCap := plancache.DefaultCapacity
	if w.cacheCap > 0 {
		cacheCap = w.cacheCap
	}
	lp := &layerPass{tr: tr, w: w, cache: plancache.New(cacheCap)}
	if w.fitsCache {
		// The servers' caches hold every spec of the workload by now.
		if err := lp.warm(rqs); err != nil {
			return nil, err
		}
	}
	var err error
	if w.clustered() {
		storeDir := filepath.Join(dir, "layer-artifacts")
		if err := prefillStore(storeDir, fill); err != nil {
			return nil, err
		}
		if lp.store, err = artifact.OpenStore(storeDir, w.tierCap); err != nil {
			return nil, err
		}
	}
	if w.wal {
		if lp.log, _, err = wal.Open(filepath.Join(dir, "layer.wal")); err != nil {
			return nil, err
		}
		defer lp.log.Close()
	}
	mark := len(tr.snapshot())
	for i := range rqs {
		if resps[i] == nil {
			continue // failed in the HTTP phase; already counted
		}
		if err := lp.replay(&rqs[i], resps[i]); err != nil {
			return nil, fmt.Errorf("layer pass, request %d: %w", rqs[i].Index, err)
		}
	}
	if lp.log != nil {
		if err := lp.log.Close(); err != nil {
			return nil, err
		}
	}
	// Peer calls still in flight from the HTTP phase may land in the
	// buffer meanwhile; they carry no request identity.
	var out []span
	for _, sp := range tr.snapshot()[mark:] {
		if sp.Req != 0 {
			out = append(out, sp)
		}
	}
	return out, nil
}

// warm plans every request once through the pass's cache, untimed.
func (lp *layerPass) warm(rqs []request) error {
	for _, rq := range rqs {
		cfg, err := engineConfig(&rq.Req)
		if err != nil {
			return err
		}
		cfg.PlanCache = lp.cache
		eng, err := core.New(cfg)
		if err != nil {
			return err
		}
		if _, err := eng.Request(rq.Req.Demand); err != nil {
			return err
		}
	}
	return nil
}

// engineConfig resolves a plan request into the engine configuration a
// server builds for it.
func engineConfig(pr *server.PlanRequest) (core.Config, error) {
	target, err := ratio.Parse(pr.Ratio)
	if err != nil {
		return core.Config{}, err
	}
	alg := core.MM
	if pr.Algorithm != "" {
		if alg, err = core.ParseAlgorithm(pr.Algorithm); err != nil {
			return core.Config{}, err
		}
	}
	sch := stream.MMS
	if strings.EqualFold(pr.Scheduler, "SRS") {
		sch = stream.SRS
	}
	cfg := core.Config{Target: target, Algorithm: alg, Scheduler: sch, Mixers: pr.Mixers, Storage: pr.Storage}
	if pr.ErrorAware {
		cfg.ErrorPolicy = &errormodel.Policy{Params: errormodel.Params{SplitImbalance: pr.SplitImbalance, DispenseError: pr.DispenseError}}
	}
	return cfg, nil
}

// prefillStore writes n placeholder artifacts into dir, so Store.Put and
// Get are timed at the servers' directory size.
func prefillStore(dir string, n int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprint("fill-", i)))
		if err := os.WriteFile(filepath.Join(dir, hex.EncodeToString(sum[:])+".dmfbart"), sum[:], 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (lp *layerPass) replay(rq *request, resp *server.StreamResponse) error {
	tr := lp.tr
	req := rq.Index + 1
	root := span{Name: "layer.request", ID: tr.newID(), Req: req, Start: tr.now()}
	defer func() {
		root.End = tr.now()
		tr.record(root)
	}()
	call := func(name string, fn func()) { tr.timed(name, root.ID, req, fn) }

	var pr server.PlanRequest
	var err error
	call("server.json_decode", func() {
		dec := json.NewDecoder(bytes.NewReader(rq.Body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&pr)
	})
	if err != nil {
		return err
	}
	cfg, err := engineConfig(&pr)
	if err != nil {
		return err
	}
	cfg.PlanCache = lp.cache
	target, alg, sch, policy := cfg.Target, cfg.Algorithm, cfg.Scheduler, cfg.ErrorPolicy
	var eng *core.Engine
	call("core.new", func() { eng, err = core.New(cfg) })
	if err != nil {
		return err
	}
	if lp.w.clustered() {
		// A clustered server derives the plan key through a second engine.
		call("core.new", func() {
			var e2 *core.Engine
			if e2, err = core.New(core.Config{Target: target, Algorithm: alg, Scheduler: sch, Mixers: pr.Mixers, PlanCache: lp.cache}); err == nil {
				_ = plancache.KeyFor(e2.Base(), pr.Demand, e2.Mixers(), sch.String(), plancache.PristinePolicy)
			}
		})
		if err != nil {
			return err
		}
	}

	algs := []core.Algorithm{alg}
	if policy != nil {
		algs = core.Algorithms()
	}
	var bases []*mixgraph.Graph
	seen := map[uint64]bool{}
	for _, a := range algs {
		var g *mixgraph.Graph
		call("core.base_build", func() { g, err = a.Build(target) })
		if err != nil {
			return err
		}
		if !seen[g.Fingerprint()] {
			seen[g.Fingerprint()] = true
			bases = append(bases, g)
		}
	}
	for _, g := range bases {
		if err := lp.buildPlan(call, g, eng.Mixers(), sch, pr, policy); err != nil {
			return err
		}
	}

	scfg := stream.Config{Base: bases[0], Mixers: eng.Mixers(), Storage: pr.Storage, Scheduler: sch, Cache: plancache.New(8), ErrorPolicy: policy}
	if policy != nil {
		scfg.Candidates = bases
	}
	stream.PurgeScanMemo()
	call("stream.run", func() { _, err = stream.RunCtx(context.Background(), scfg, pr.Demand) })
	if err != nil {
		return err
	}
	// The engine plans through the pass's own cache, which has the
	// servers' capacity and sees the same request sequence, so
	// core.request hits and misses as the served requests did. Repeating
	// the request is then a guaranteed hit: the per-request cost of
	// planning through a warm cache, which every served request pays.
	stream.PurgeScanMemo()
	call("core.request", func() { _, err = eng.RequestCtx(context.Background(), pr.Demand) })
	if err != nil {
		return err
	}
	call("core.request_warm", func() { _, err = eng.RequestCtx(context.Background(), pr.Demand) })
	if err != nil {
		return err
	}

	if lp.log != nil && pr.Session != "" {
		// The two fsync'd records a session batch costs the server.
		for _, rec := range []wal.Record{
			{Kind: wal.KindBatchAccept, Session: pr.Session, Batch: int(req), Demand: pr.Demand},
			{Kind: wal.KindBatchDone, Session: pr.Session, Batch: int(req), Demand: pr.Demand, StartCycle: resp.StartCycle, Emitted: resp.Emitted},
		} {
			call("wal.append", func() { err = lp.log.Append(rec) })
			if err != nil {
				return err
			}
		}
	}

	// The registry calls the server's request wrapper makes around every
	// request, metric names built per request as it builds them.
	endpoint := strings.TrimPrefix(rq.Path, "/v1/")
	call("obs.request_metrics", func() {
		obs.Inc("server.requests")
		obs.Inc("server.requests." + endpoint)
		obs.Observe("server.latency_ms."+endpoint, 0)
		obs.Inc("server.status." + strconv.Itoa(http.StatusOK))
	})

	var buf bytes.Buffer
	call("server.json_encode", func() {
		if rq.Path == "/v1/stream" {
			err = json.NewEncoder(&buf).Encode(resp)
		} else {
			err = json.NewEncoder(&buf).Encode(&resp.PlanResponse)
		}
	})
	return err
}

// buildPlan replays one base graph's plan the way the stream planner
// builds a cache miss: the demand scan when storage is limited, then per
// distinct pass demand the packed forest, the schedule kernel, the
// materialized forms and the audit — followed by the artifact round trip
// and tier write a clustered server adds, and the error analysis an
// error-aware selection adds.
func (lp *layerPass) buildPlan(call func(string, func()), g *mixgraph.Graph, mixers int, sch stream.Scheduler, pr server.PlanRequest, policy *errormodel.Policy) error {
	var err error
	perPass := pr.Demand
	if pr.Storage > 0 {
		stream.PurgeScanMemo()
		call("stream.demand_scan", func() {
			perPass, err = stream.MaxSinglePassDemand(stream.Config{Base: g, Mixers: mixers, Storage: pr.Storage, Scheduler: sch}, pr.Demand)
		})
		if err != nil {
			return err
		}
		if perPass == 0 {
			return fmt.Errorf("storage %d admits no pass", pr.Storage)
		}
	}
	demands := []int{perPass}
	if rem := pr.Demand % perPass; rem > 0 && pr.Demand > perPass {
		demands = append(demands, rem)
	}
	for _, d := range demands {
		var pf *forest.PackedForest
		call("forest.build_packed", func() { pf, err = forest.BuildPacked(&lp.pb, g, d) })
		if err != nil {
			return err
		}
		call("sched.kernel", func() {
			if sch == stream.SRS {
				err = lp.k.SRS(pf, mixers)
			} else {
				err = lp.k.MMS(pf, mixers)
			}
		})
		if err != nil {
			return err
		}
		var f *forest.Forest
		var s *sched.Schedule
		call("sched.materialize", func() {
			f = pf.Materialize()
			s = lp.k.Materialize(f)
		})
		var rep *audit.Report
		call("audit.check_plan", func() { rep = audit.CheckPlan(f, s) })
		if !rep.Clean() {
			return rep.Err()
		}
		if policy != nil {
			call("errormodel.analyze", func() { _, err = errormodel.Analyze(f, policy.Params) })
			if err != nil {
				return err
			}
		}
		if !lp.w.clustered() {
			continue // only a clustered server moves plans as artifacts
		}
		key := plancache.KeyFor(g, d, mixers, sch.String(), plancache.PristinePolicy)
		var data []byte
		call("artifact.encode", func() { data, err = artifact.Encode(key, plancache.NewPlan(f, s)) })
		if err != nil {
			return err
		}
		var a *artifact.Artifact
		call("artifact.decode_verified", func() { a, err = artifact.DecodeVerified(data) })
		if err != nil {
			return err
		}
		if a.Key != key {
			return fmt.Errorf("artifact round trip changed the key")
		}
		addr := artifact.AddressFor(key)
		call("artifact.store_put", func() { err = lp.store.Put(addr, data) })
		if err != nil {
			return err
		}
		var ok bool
		call("artifact.store_get", func() { _, ok = lp.store.Get(addr) })
		if !ok {
			return fmt.Errorf("artifact %s missing right after Put", addr)
		}
	}
	return nil
}
