package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/plancache"
)

// This file is the server half of the distributed tier: the artifact
// endpoints peers call on each other, and the artifact tier under a tiered
// server's plan cache, which turns a cold plan miss into (in order) a
// warm-disk decode or an adoption from the plan key's ring owner, and
// publishes every plan this node builds back toward the owner. Every byte of
// any provenance — disk, peer, client PUT — passes adopt (structural decode
// + integrity hash + full plan audit + address check) before it can reach a
// cache or an executor.

// maxArtifactBody bounds artifact uploads and build responses.
const maxArtifactBody = 64 << 20

// replicaFanout is R, the number of ring successors beyond the owner that
// hold a copy of each artifact. R=2 means every verified plan lives on three
// nodes (owner + 2), so one disk loss never loses the only copy and a second
// can be ridden out while read-repair refills the first.
const replicaFanout = 2

// replicaSet resolves the nodes that should hold addr: the ring owner first,
// then its replicaFanout distinct successors. Nil without a cluster.
func (s *Server) replicaSet(addr string) []string {
	return s.clusterNode.Successors(addr, replicaFanout+1)
}

// pushReplicas synchronously pushes verified artifact bytes to every member
// of addr's replica set except this node. Failures only count: replication
// converges via read-repair, it does not gate serving.
func (s *Server) pushReplicas(addr string, data []byte) {
	self := s.clusterNode.Self()
	for _, target := range s.replicaSet(addr) {
		if target == self {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DefaultTimeout)
		err := s.clusterNode.Push(ctx, target, addr, data)
		cancel()
		if err != nil {
			obs.Inc("server.artifact.push_errors")
			continue
		}
		obs.Inc("server.artifact.pushed")
	}
}

// background runs fn off the request path: publishes, replica pushes and
// read-repairs. WaitPublish waits for every such goroutine.
func (s *Server) background(fn func()) {
	s.publishWG.Add(1)
	go func() {
		defer s.publishWG.Done()
		fn()
	}()
}

// Typed artifact-endpoint errors.
var (
	// errArtifactsDisabled reports artifact endpoints on a server without a
	// configured artifact store or cluster. HTTP 501.
	errArtifactsDisabled = errors.New("server: artifact tier not configured (start with -artifact-dir or -peers)")
	// errArtifactNotFound reports a GET for an address the warm tier does
	// not hold. HTTP 404.
	errArtifactNotFound = errors.New("no artifact")
)

// readBody reads a binary request body — an artifact or a session snapshot
// — of at most maxArtifactBody bytes.
func readBody(r *http.Request) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r.Body, maxArtifactBody))
	if err != nil {
		return nil, &errBadRequest{err}
	}
	return data, nil
}

// artifactTier is the plancache.Tier of a tiered server's plan cache, so
// every pristine plan any request misses climbs it: stateless or session,
// full or short pass, error-aware candidate, execute or recovery warm-up.
type artifactTier struct{ s *Server }

// peerBuildKey marks the context of a build served for a peer (POST
// /v1/artifact/build). Such a build never takes the peer rung, so two nodes
// whose rings disagree cannot bounce it between them, and it fans out only
// from the ring owner.
type peerBuildKey struct{}

func servesPeer(ctx context.Context) bool { return ctx.Value(peerBuildKey{}) != nil }

// Fetch climbs the ladder under the LRU, cheapest first: the warm disk
// tier, then the cross-node single-flight on the plan key's ring owner
// (adoptFromOwner; never for a build served for a peer). A miss leaves the
// cache to build locally and Publish. Failures are never fatal: a corrupt
// disk file, a down owner or a verify rejection drops to the next rung, and
// the local build remains the floor. An address leaves the target's fluid
// names out, so a rung serves an adopted plan only if its decoded key is
// the requested one, names included.
func (t artifactTier) Fetch(ctx context.Context, key plancache.Key) (*plancache.Plan, bool) {
	s := t.s
	addr := artifact.AddressFor(key)
	if data, ok := s.artifacts.Get(addr); ok {
		if a, err := s.adopt(addr, data); err == nil && a.Key == key {
			obs.Inc("server.artifact.disk_promotions")
			return a.Plan, true
		}
	}
	if s.clusterNode == nil || servesPeer(ctx) {
		return nil, false
	}
	owner := s.clusterNode.Owner(addr)
	if owner == s.clusterNode.Self() {
		return nil, false
	}
	if p := s.adoptFromOwner(ctx, key, addr, owner); p != nil {
		obs.Inc("server.artifact.remote_builds")
		return p, true
	}
	obs.Inc("server.artifact.remote_fallbacks")
	return nil, false
}

// Publish encodes a plan this node built, stores it in the warm tier and
// pushes it to the rest of its replica set (owner + successors), async off
// the request path; errors only count (the plan already served). A build
// served for a peer fans out only from the ring owner: the asking follower
// keeps its own copy. A plan found in a tier is never published again.
func (t artifactTier) Publish(ctx context.Context, key plancache.Key, p *plancache.Plan) {
	s, peerBuild := t.s, servesPeer(ctx)
	s.background(func() {
		data, err := artifact.Encode(key, p)
		if err != nil {
			obs.Inc("server.artifact.encode_errors")
			return
		}
		addr := artifact.AddressFor(key)
		if err := s.artifacts.Put(addr, data); err != nil {
			obs.Inc("server.artifact.store_errors")
		}
		if s.clusterNode != nil && (!peerBuild || s.clusterNode.Owns(addr)) {
			s.pushReplicas(addr, data)
		}
	})
}

// adopt is the one trust gate for artifact bytes of any provenance — disk,
// peer or client PUT: decode + integrity hash + full plan audit
// (artifact.DecodeVerified), then a check that the bytes really are the
// artifact at addr. Only an adopted artifact may reach the plan cache.
// Rejections count and return an error wrapping an artifact error (HTTP
// 422).
func (s *Server) adopt(addr string, data []byte) (*artifact.Artifact, error) {
	a, err := artifact.DecodeVerified(data)
	if err == nil && a.Address() != addr {
		err = fmt.Errorf("%w: body is artifact %s, not %s", artifact.ErrVerify, a.Address(), addr)
	}
	if err != nil {
		obs.Inc("server.artifact.verify_rejected")
		return nil, err
	}
	return a, nil
}

// adoptFromOwner runs the follower half of the cross-node single-flight.
// The fetch ladder, in order:
//
//  1. fetch from the owner;
//  2. owner miss or owner down — fetch from the owner's ring successors
//     (the replica set): a copy that verifies is promoted AND pushed back
//     to the owner (read-repair), so the next follower finds the owner warm
//     again after a disk loss;
//  3. owner alive but the whole replica set cold — ask the owner to build.
//     The body is derived from the key alone, so every follower of one key
//     sends the same request and joins the owner's one flight.
//
// Every rung verifies before trusting; nil sends the caller to the
// local-build floor.
func (s *Server) adoptFromOwner(ctx context.Context, key plancache.Key, addr, owner string) *plancache.Plan {
	// adopt takes one peer call's outcome: verified bytes also warm the disk
	// tier (nil-safe).
	adopt := func(data []byte, err error) *plancache.Plan {
		if err != nil {
			return nil
		}
		a, err := s.adopt(addr, data)
		if err != nil {
			return nil
		}
		s.artifacts.Put(addr, data)
		if a.Key != key {
			return nil
		}
		return a.Plan
	}

	data, err := s.clusterNode.Fetch(ctx, owner, addr)
	if p := adopt(data, err); p != nil {
		return p
	}
	ownerAlive := errors.Is(err, cluster.ErrNotFound)

	// Owner cold or down: the replica set may still hold the artifact.
	self := s.clusterNode.Self()
	for _, replica := range s.replicaSet(addr) {
		if replica == owner || replica == self {
			continue
		}
		rdata, rerr := s.clusterNode.Fetch(ctx, replica, addr)
		p := adopt(rdata, rerr)
		if p == nil {
			continue
		}
		// Read-repair: refill the owner so the ladder's first rung works
		// again for the next follower (async; failure only counts).
		s.background(func() {
			rctx, cancel := context.WithTimeout(context.Background(), s.cfg.DefaultTimeout)
			defer cancel()
			if err := s.clusterNode.Push(rctx, owner, addr, rdata); err == nil {
				obs.Inc("server.artifact.read_repairs")
			} else {
				obs.Inc("server.artifact.push_errors")
			}
		})
		return p
	}

	if !ownerAlive {
		return nil
	}
	body, _ := json.Marshal(PlanRequest{ // plain fields: Marshal cannot fail
		Ratio: key.Ratio, Algorithm: key.Algo, Demand: key.Demand, Mixers: key.Mixers, Scheduler: key.Scheduler,
	})
	return adopt(s.clusterNode.BuildOn(ctx, owner, body))
}

// WaitPublish blocks until every in-flight async artifact publish has
// finished. Tests and the multi-node bench use it to make cross-node state
// deterministic; Drain does not wait (publishes are best-effort).
func (s *Server) WaitPublish() { s.publishWG.Wait() }

// sessionOwner resolves the ring owner of a session key ("" when this node
// owns it or no cluster is configured). Session state lives per-node, so the
// server serves the request either way; the owner hint in the response tells
// routing layers where the session's timeline should live, and the counter
// exposes how much session traffic is landing off-owner.
func (s *Server) sessionOwner(name string) string {
	if s.clusterNode == nil || name == "" {
		return ""
	}
	owner := s.clusterNode.Owner("session|" + name)
	if owner == s.clusterNode.Self() {
		return ""
	}
	obs.Inc("server.sessions.off_owner")
	return owner
}

// serveArtifactGet answers GET /v1/artifact/{addr} from the warm disk tier.
// Bytes are served as stored — the peer verifies on its side (and we
// verified before storing), so the read path stays one ReadFile.
func (s *Server) serveArtifactGet(_ context.Context, r *http.Request) (any, error) {
	if s.artifacts == nil {
		return nil, errArtifactsDisabled
	}
	addr := r.PathValue("addr")
	data, ok := s.artifacts.Get(addr)
	if !ok {
		return nil, fmt.Errorf("%w %s", errArtifactNotFound, addr)
	}
	return data, nil
}

// serveArtifactPut answers PUT /v1/artifact/{addr}: verify, check the
// address really is the artifact's content address, promote, store. A
// corrupt or misaddressed artifact is refused with a typed 422 — the warm
// tier never holds bytes that failed verification.
func (s *Server) serveArtifactPut(_ context.Context, r *http.Request) (any, error) {
	if s.artifacts == nil {
		return nil, errArtifactsDisabled
	}
	addr := r.PathValue("addr")
	data, err := readBody(r)
	if err != nil {
		return nil, err
	}
	a, err := s.adopt(addr, data)
	if err != nil {
		return nil, err
	}
	s.planCache.Put(a.Key, a.Plan)
	if err := s.artifacts.Put(addr, data); err != nil {
		return nil, err
	}
	// An owner accepting a client PUT fans it out to its ring successors,
	// async off the request path. Pushes arriving from the replication
	// protocol itself (ReplicaHeader) are stored without fanning out — the
	// pusher already covered the replica set — so replication never cascades.
	if s.clusterNode != nil && s.clusterNode.Owns(addr) && r.Header.Get(cluster.ReplicaHeader) == "" {
		s.background(func() { s.pushReplicas(addr, data) })
	}
	return nil, nil
}

// buildRequest is the JSON body of POST /v1/artifact/build: the plan request
// a follower derives from a plan key, so stateless, storage-unlimited and
// error-blind — a request whose one pass plan is the key's.
type buildRequest struct{ PlanRequest }

func (r *buildRequest) check() error {
	if r.Session != "" || r.Storage != 0 || r.ErrorAware {
		return errors.New("build endpoint takes stateless storage-unlimited plans only")
	}
	return nil
}

// serveArtifactBuild answers POST /v1/artifact/build — the owner half of the
// cross-node single-flight. The response is the encoded artifact of the
// request's one pass, planned through the plan cache as a build served for
// a peer, so the tier skips its peer rung (the caller is the peer) and a
// warm LRU or disk tier answers without building. Concurrent builds of one
// spec coalesce on the flight group, so a thundering herd of followers
// costs one build.
func (s *Server) serveArtifactBuild(ctx context.Context, r *http.Request) (any, error) {
	var req buildRequest
	spec, ctx, cancel, err := s.intake(ctx, r, &req)
	if err != nil {
		return nil, err
	}
	defer cancel()
	v, err, _ := s.flights.do(ctx, spec.flightKey("artifact"), func() (any, error) {
		eng, err := s.newEngine(spec)
		if err != nil {
			return nil, err
		}
		p, err := eng.PassPlan(context.WithValue(ctx, peerBuildKey{}, true), spec.demand)
		if err != nil {
			return nil, err
		}
		s.notePlanKey(spec)
		return artifact.Encode(eng.PlanKey(spec.demand), p)
	})
	return v, err
}

// clusterReady summarizes the cluster tier for /healthz/ready.
type clusterReady struct {
	Self  string            `json:"self"`
	Size  int               `json:"size"`
	Peers map[string]string `json:"peers,omitempty"` // peer ID → breaker state
}

// clusterHealth returns the readiness view of the cluster (nil when not
// clustered).
func (s *Server) clusterHealth() *clusterReady {
	if s.clusterNode == nil {
		return nil
	}
	return &clusterReady{
		Self:  s.clusterNode.Self(),
		Size:  s.clusterNode.Size(),
		Peers: s.clusterNode.PeerStates(),
	}
}

// setServingGauges exports the point-in-time occupancy of the plan cache and
// the warm artifact tier ahead of a /metrics render. Gauges are levels, not
// flows: entries/capacity are counts, hit_rate_pct is the lifetime hit rate
// in whole percent (the flow counters plancache.hits/misses carry the exact
// series).
func (s *Server) setServingGauges() {
	if !obs.Enabled() {
		return
	}
	st := s.planCache.Stats()
	obs.SetGauge("plancache.entries", int64(st.Size))
	obs.SetGauge("plancache.capacity", int64(st.Capacity))
	obs.SetGauge("plancache.hit_rate_pct", int64(st.HitRate()*100))
	if s.artifacts != nil {
		obs.SetGauge("artifact.disk.entries", int64(s.artifacts.Len()))
		obs.SetGauge("artifact.disk.capacity", int64(s.artifacts.Capacity()))
	}
	if s.clusterNode != nil {
		obs.SetGauge("cluster.size", int64(s.clusterNode.Size()))
		open := 0
		for _, state := range s.clusterNode.PeerStates() {
			if state != "closed" {
				open++
			}
		}
		obs.SetGauge("cluster.peers_degraded", int64(open))
	}
}
