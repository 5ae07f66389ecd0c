// Package server exposes the demand-driven mixture-preparation stack as an
// HTTP/JSON service (the `dmfbd` daemon): /v1/plan answers a (ratio, demand)
// request with the mixing forest's MMS/SRS pass plan, /v1/stream adds the
// cycle-by-cycle emission timeline of the multi-pass plan under a storage
// budget, and /v1/execute replays the plan cyberphysically with optional
// fault injection. /healthz and /metrics expose liveness and the obs
// registry.
//
// The serving core is built from three concurrency layers:
//
//   - a sharded LRU session pool of named, long-lived core.Engines (each
//     internally synchronized), so repeated requests against one session
//     extend a single droplet timeline — the paper's demand-driven shape;
//   - a single-flight group coalescing identical stateless plans that are
//     in flight at the same moment, stacked on internal/plancache which
//     deduplicates identical plans across time;
//   - a bounded admission queue: MaxInFlight requests plan concurrently,
//     up to MaxQueue more wait for a slot, and everything beyond that is
//     refused immediately with 429 + Retry-After.
//
// Every request runs under a deadline-carrying context.Context threaded
// through stream.RunCtx / runtime.RunStreamCtx / exec; expiry surfaces as a
// typed cancel.ErrCanceled within one cycle (or pass, or candidate-demand)
// boundary and is mapped to HTTP 504. Drain stops admission and waits for
// the in-flight requests, so SIGTERM never tears a plan in half.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/cancel"
	"repro/internal/chip"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/errormodel"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/forest"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/runtime"
	"repro/internal/stream"
	"repro/internal/wal"
)

// Config tunes the serving layers; zero values select sensible defaults.
type Config struct {
	// MaxInFlight is the number of requests allowed to plan or execute
	// concurrently (admission slots). Default 64.
	MaxInFlight int
	// MaxQueue is the number of additional requests allowed to wait for a
	// slot before the server answers 429. Default 256.
	MaxQueue int
	// DefaultTimeout bounds a request that does not name its own
	// timeout_ms. Default 30s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-supplied timeout_ms. Default 2m.
	MaxTimeout time.Duration
	// Sessions is the session-pool capacity across all shards; the least
	// recently used session is evicted beyond it. Default 128.
	Sessions int
	// RetryAfter is the hint returned with 429/503 responses. Default 1s.
	RetryAfter time.Duration
	// WAL, when non-nil, journals session lifecycle to a write-ahead log;
	// the server refuses traffic (503 "recovering") until Recover is called
	// with the log's boot-time ReplayInfo. See durability.go.
	WAL *wal.Log
	// Fleet, when non-nil, enables POST /v1/assay: closed-loop assay
	// execution scheduled over the simulated chip farm, with per-chip
	// health exported by /healthz/ready.
	Fleet *fleet.Fleet
	// PlanCache, when non-nil, isolates this server's plan cache from the
	// process-wide default (multi-node tests and benches run several servers
	// in one process). Nil selects plancache.Default().
	PlanCache *plancache.Cache
	// Artifacts, when non-nil, enables the warm disk artifact tier and the
	// GET/PUT /v1/artifact/{addr} endpoints.
	Artifacts *artifact.Store
	// Cluster, when non-nil, enables the distributed tier: plan keys hash to
	// ring owners, cold plans are fetched from or built on their owner
	// (cross-node single-flight), and POST /v1/artifact/build serves peers.
	Cluster *cluster.Node
	// Noise is the chip's default physical noise model (split imbalance and
	// dispense error magnitudes, dmfbd's -split-imbalance/-dispense-error
	// flags). Requests that carry no noise fields of their own inherit it:
	// error-aware plans select under it and /v1/execute derives its sensor
	// thresholds from it (runtime.DeriveFromModel). The zero value keeps
	// the hand-tuned policy defaults.
	Noise errormodel.Params
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.Sessions <= 0 {
		c.Sessions = 128
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server is the dmfbd serving core. Create with New, mount Handler on an
// http.Server, and call Drain before exit.
type Server struct {
	cfg         Config
	pool        *sessionPool
	flights     flightGroup
	wal         *wal.Log
	fleet       *fleet.Fleet
	planCache   *plancache.Cache
	artifacts   *artifact.Store
	clusterNode *cluster.Node
	publishWG   sync.WaitGroup // in-flight async artifact publishes

	slots      chan struct{} // admission slots; buffered to MaxInFlight
	waiting    atomic.Int64  // requests blocked on a slot
	draining   atomic.Bool
	recovering atomic.Bool                    // WAL replay in progress
	recovery   atomic.Pointer[RecoveryReport] // last boot's recovery report

	// planKeys dedups the stateless plan keys journaled to the WAL.
	planKeysMu sync.Mutex
	planKeys   map[string]bool

	// migrated tombstones sessions this node shipped away: session name →
	// receiving node ID. A tombstone turns later requests for the session
	// into 307 redirects at the exact holder, even if the ring has moved on.
	migratedMu sync.Mutex
	migrated   map[string]string

	// mu guards the in-flight census used by Drain. A WaitGroup cannot
	// express "stop admitting, then wait": its Add may not race with Wait
	// around a zero counter, which is exactly the drain moment.
	mu        sync.Mutex
	inflightN int
	drainDone chan struct{} // non-nil once draining; closed when inflightN hits 0
}

// New builds a Server from the configuration. A server configured with a
// WAL starts in the recovering state and must call Recover before it
// serves; see durability.go.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		pool:        newSessionPool(cfg.Sessions),
		wal:         cfg.WAL,
		fleet:       cfg.Fleet,
		planCache:   cfg.PlanCache,
		artifacts:   cfg.Artifacts,
		clusterNode: cfg.Cluster,
		slots:       make(chan struct{}, cfg.MaxInFlight),
		planKeys:    map[string]bool{},
		migrated:    map[string]string{},
	}
	if s.wal != nil {
		s.recovering.Store(true)
		s.pool.onEvict = func(name string) {
			s.wal.AppendAsync(wal.Record{Kind: wal.KindSessionEvict, Session: name})
		}
	}
	return s
}

// Handler returns the routed HTTP handler. /healthz and /metrics bypass
// admission control so operators can always observe a saturated server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", s.handle("plan", s.servePlan))
	mux.HandleFunc("POST /v1/stream", s.handle("stream", s.serveStream))
	mux.HandleFunc("POST /v1/execute", s.handle("execute", s.serveExecute))
	mux.HandleFunc("POST /v1/assay", s.handle("assay", s.serveAssay))
	mux.HandleFunc("GET /v1/recovery", s.serveRecovery)
	mux.HandleFunc("GET /v1/artifact/{addr}", s.serveArtifactGet)
	mux.HandleFunc("PUT /v1/artifact/{addr}", s.serveArtifactPut)
	mux.HandleFunc("POST /v1/artifact/build", s.serveArtifactBuild)
	mux.HandleFunc("POST /v1/session/{id}/migrate", s.serveSessionMigrate)
	mux.HandleFunc("POST /v1/session/{id}/adopt", s.serveSessionAdopt)
	mux.HandleFunc("POST /v1/cluster/members", s.serveClusterMembers)
	mux.HandleFunc("GET /healthz", s.serveHealth)
	mux.HandleFunc("GET /healthz/live", s.serveHealthLive)
	mux.HandleFunc("GET /healthz/ready", s.serveHealthReady)
	mux.HandleFunc("GET /metrics", s.serveMetrics)
	return mux
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain initiates a graceful shutdown: new work is refused with 503 while
// the in-flight (and queued) requests run to completion. It returns when
// the last request has finished or ctx expires, whichever is first.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining.Store(true)
	if s.drainDone == nil {
		s.drainDone = make(chan struct{})
		if s.inflightN == 0 {
			close(s.drainDone)
		}
	}
	done := s.drainDone
	s.mu.Unlock()
	obs.Inc("server.drains")
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain abandoned with requests in flight: %w", ctx.Err())
	}
}

// beginRequest registers a request with the drain census; it fails once
// draining has begun. endRequest is its mandatory counterpart.
func (s *Server) beginRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.inflightN++
	return true
}

func (s *Server) endRequest() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflightN--
	// After the drain flag is up no request is admitted, so the census is
	// non-increasing and crosses zero exactly once.
	if s.inflightN == 0 && s.drainDone != nil {
		close(s.drainDone)
	}
}

// errRejected carries a pre-admission refusal and its HTTP status.
type errRejected struct {
	status int
	msg    string
}

func (e *errRejected) Error() string { return e.msg }

// admit acquires an admission slot, honoring the drain flag, the queue
// bound and the request context. The returned release func must be called
// exactly once after the request finishes.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	// The census admission and the drain flag are checked under one lock,
	// so no request slips past a Drain that has begun.
	if !s.beginRequest() {
		return nil, &errRejected{http.StatusServiceUnavailable, "server is draining"}
	}
	select {
	case s.slots <- struct{}{}:
	default:
		// No free slot: wait, but only if the queue has room.
		if s.waiting.Add(1) > int64(s.cfg.MaxQueue) {
			s.waiting.Add(-1)
			s.endRequest()
			obs.Inc("server.admission.rejected")
			return nil, &errRejected{http.StatusTooManyRequests, "admission queue full"}
		}
		obs.Inc("server.admission.queued")
		select {
		case s.slots <- struct{}{}:
			s.waiting.Add(-1)
		case <-ctx.Done():
			s.waiting.Add(-1)
			s.endRequest()
			return nil, cancel.Check(ctx)
		}
	}
	return func() {
		<-s.slots
		s.endRequest()
	}, nil
}

// timeout resolves a request's planning deadline from its timeout_ms.
func (s *Server) timeout(ms int) time.Duration {
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// handlerFunc is one /v1 endpoint: it parses its own body and returns the
// response value or an error (mapped to an HTTP status by statusFor).
type handlerFunc func(ctx context.Context, r *http.Request) (any, error)

// handle wraps an endpoint with admission control, the per-request
// deadline, structured obs logging and uniform error rendering.
func (s *Server) handle(name string, fn handlerFunc) http.HandlerFunc {
	// Metric names are built once per endpoint, not once per request.
	requests, latency := "server.requests."+name, "server.latency_ms."+name
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		obs.Inc("server.requests")
		obs.Inc(requests)

		status, err := s.dispatch(name, w, r, fn)
		if obs.Enabled() {
			obs.Observe(latency, float64(time.Since(t0).Microseconds())/1000)
			f := map[string]any{
				"endpoint": name,
				"status":   status,
				"ms":       time.Since(t0).Milliseconds(),
			}
			if err != nil {
				f["error"] = err.Error()
			}
			obs.Emit("server.request", f)
		}
		obs.Inc(statusMetric(status))
	}
}

// statusMetrics holds the "server.status.<code>" counter name of every
// standard HTTP status code, so counting a response builds no string.
var statusMetrics = func() (names [600]string) {
	for code := 100; code < len(names); code++ {
		names[code] = "server.status." + strconv.Itoa(code)
	}
	return names
}()

// statusMetric returns the counter name for an HTTP status code.
func statusMetric(code int) string {
	if code >= 100 && code < len(statusMetrics) {
		return statusMetrics[code]
	}
	return "server.status." + strconv.Itoa(code)
}

// dispatch runs one admitted request and writes its response, returning the
// status for the access log.
func (s *Server) dispatch(name string, w http.ResponseWriter, r *http.Request, fn handlerFunc) (int, error) {
	if s.recovering.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds())))
		return http.StatusServiceUnavailable, writeError(w, http.StatusServiceUnavailable, errRecovering)
	}
	release, err := s.admit(r.Context())
	if err != nil {
		var rej *errRejected
		if errors.As(err, &rej) {
			w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds())))
			return rej.status, writeError(w, rej.status, err)
		}
		// Client went away while queued.
		return statusFor(err), writeError(w, statusFor(err), err)
	}
	defer release()

	resp, err := fn(r.Context(), r)
	if err != nil {
		// A migrated session is not an error, it is an address: point the
		// client at the exact node holding the timeline (307 preserves the
		// method and body, so standard clients re-POST transparently).
		var moved *errSessionMoved
		if errors.As(err, &moved) {
			w.Header().Set("Location", moved.location)
			writeJSON(w, http.StatusTemporaryRedirect, errorResponse{Error: err.Error()})
			return http.StatusTemporaryRedirect, nil
		}
		st := statusFor(err)
		if st == http.StatusServiceUnavailable || st == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds())))
		}
		return st, writeError(w, st, err)
	}
	return http.StatusOK, writeJSON(w, http.StatusOK, resp)
}

// errBadRequest marks client-side validation failures for statusFor.
type errBadRequest struct{ err error }

func (e *errBadRequest) Error() string { return e.err.Error() }
func (e *errBadRequest) Unwrap() error { return e.err }

// statusFor maps the stack's typed errors onto HTTP statuses.
func statusFor(err error) int {
	var bad *errBadRequest
	switch {
	case errors.As(err, &bad):
		return http.StatusBadRequest
	case errors.Is(err, errSessionConflict), errors.Is(err, errSessionFenced):
		return http.StatusConflict
	case errors.Is(err, errSessionNotFound):
		return http.StatusNotFound
	case errors.Is(err, errFleetDisabled):
		return http.StatusNotImplemented
	case errors.Is(err, fleet.ErrSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, fleet.ErrNoChips):
		return http.StatusServiceUnavailable
	case errors.Is(err, fleet.ErrAssayFailed):
		return http.StatusBadGateway
	case errors.Is(err, cancel.ErrCanceled):
		// Deadline expiry is the server refusing to plan any longer (504);
		// anything else canceled means the client hung up.
		if errors.Is(err, context.DeadlineExceeded) {
			return http.StatusGatewayTimeout
		}
		return http.StatusServiceUnavailable
	case errors.Is(err, stream.ErrStorage),
		errors.Is(err, core.ErrBadConfig),
		errors.Is(err, core.ErrPersistStorage),
		errors.Is(err, forest.ErrBadDemand),
		errors.Is(err, forest.ErrArenaOverflow):
		return http.StatusUnprocessableEntity
	case errors.Is(err, artifact.ErrCorrupt),
		errors.Is(err, artifact.ErrIntegrity),
		errors.Is(err, artifact.ErrVersion),
		errors.Is(err, artifact.ErrVerify):
		// A bad artifact is the sender's problem, never grounds to serve it.
		return http.StatusUnprocessableEntity
	case errors.Is(err, cluster.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, cluster.ErrPeerDown), errors.Is(err, cluster.ErrUnknownPeer):
		return http.StatusBadGateway
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) error {
	obs.Inc("server.errors")
	writeJSON(w, status, errorResponse{Error: err.Error()})
	return err
}

// decode parses a JSON request body into dst, flagging failures as client
// errors.
func decode(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return &errBadRequest{fmt.Errorf("bad request body: %w", err)}
	}
	return nil
}

// applyNoiseDefaults fills a decoded request's noise fields from the
// server's configured chip model when the client supplied none, so a
// daemon booted with -split-imbalance/-dispense-error applies its chip's
// physics to every error-aware plan and every execute run by default.
func (s *Server) applyNoiseDefaults(req *PlanRequest) {
	if req.SplitImbalance == 0 && req.DispenseError == 0 {
		req.SplitImbalance = s.cfg.Noise.SplitImbalance
		req.DispenseError = s.cfg.Noise.DispenseError
	}
}

// newEngine builds a fresh engine for a validated spec.
func (s *Server) newEngine(spec *planSpec) (*core.Engine, error) {
	return core.New(core.Config{
		Target:      spec.target,
		Algorithm:   spec.algorithm,
		Scheduler:   spec.scheduler,
		Mixers:      spec.mixers,
		Storage:     spec.storage,
		PlanCache:   s.planCache,
		ErrorPolicy: spec.errPolicy,
	})
}

// engineFor resolves the engine answering a request: the named session's
// pooled engine (pinned against eviction until release is called), or a
// fresh stateless engine. The fingerprint pins session configuration across
// requests. sess is nil for stateless requests; release is always non-nil.
func (s *Server) engineFor(req *PlanRequest, spec *planSpec) (eng *core.Engine, sess *session, release func(), err error) {
	build := func() (*core.Engine, error) { return s.newEngine(spec) }
	if req.Session == "" {
		eng, err = build()
		return eng, nil, func() {}, err
	}
	// Run under the shard lock at insert. The spec is carried on every
	// session — migration snapshots re-emit it as the session-open record —
	// and with a WAL attached the open record's log position precedes every
	// batch record of the session.
	onInsert := func(sess *session) {
		sess.spec = spec
		if s.wal != nil {
			s.wal.AppendAsync(sessionRecords(req.Session, spec, nil)[0])
		}
	}
	sess, release, err = s.pool.acquire(req.Session, spec.fingerprint(), build, onInsert)
	if err != nil {
		return nil, nil, nil, err
	}
	return sess.engine, sess, release, nil
}

// planBatch validates, resolves the engine and plans one batch under the
// request deadline. It is the front half of the session endpoints and of
// /v1/execute. The returned done func releases the session pin and the
// deadline; callers must invoke it exactly once (the engine must not be
// used after).
func (s *Server) planBatch(ctx context.Context, req *PlanRequest) (*core.Engine, *core.Batch, *planSpec, context.CancelFunc, error) {
	spec, err := parsePlanRequest(req)
	if err != nil {
		return nil, nil, nil, nil, &errBadRequest{err}
	}
	ctx, cancelCtx := context.WithTimeout(ctx, s.timeout(req.TimeoutMS))
	eng, sess, release, err := s.engineFor(req, spec)
	if err != nil {
		cancelCtx()
		return nil, nil, nil, nil, err
	}
	done := func() {
		release()
		cancelCtx()
	}
	b, err := s.requestBatch(ctx, eng, sess, req.Demand)
	if err != nil {
		done()
		return nil, nil, nil, nil, err
	}
	return eng, b, spec, done, nil
}

// planStateless is the one planning path of a stateless request, behind
// the stateless branches of /v1/plan and /v1/stream and the owner build of
// /v1/artifact/build (forPeer). It builds the request's engine once. A
// distributable request derives its plan key from that engine and climbs
// the ladder (ensurePlan; forPeer skips the peer rung) before planning
// under the request deadline. A successful plan journals its key, and a
// plan the ladder left to this node to build is published async — a plan
// found in a tier is never published again.
func (s *Server) planStateless(ctx context.Context, req *PlanRequest, spec *planSpec, forPeer bool) (*core.Engine, *core.Batch, plancache.Key, error) {
	eng, err := s.newEngine(spec)
	if err != nil {
		return nil, nil, plancache.Key{}, err
	}
	var key plancache.Key
	built := false
	if distributable(req, spec) {
		key = spec.planKey(eng)
		built = s.ensurePlan(ctx, req, key, !forPeer)
	}
	ctx, cancelCtx := context.WithTimeout(ctx, s.timeout(req.TimeoutMS))
	defer cancelCtx()
	b, err := eng.RequestCtx(ctx, spec.demand)
	if err != nil {
		return nil, nil, key, err
	}
	s.notePlanKey(spec)
	if built {
		s.background(func() { s.publishPlan(key, forPeer) })
	}
	return eng, b, key, nil
}

// coalesce runs a stateless request through the flight group under its
// spec's flight key and marks a follower's copy of the leader's response.
func coalesce[T any](s *Server, ctx context.Context, key string, fn func() (T, error), mark func(*T)) (T, error) {
	v, err, shared := s.flights.do(ctx, key, func() (any, error) { return fn() })
	if err != nil {
		var zero T
		return zero, err
	}
	resp := v.(T)
	if shared {
		mark(&resp)
		obs.Inc("server.flights.coalesced")
	}
	return resp, nil
}

// servePlan answers POST /v1/plan.
func (s *Server) servePlan(ctx context.Context, r *http.Request) (any, error) {
	var req PlanRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	s.applyNoiseDefaults(&req)
	if req.Session != "" {
		if err := s.sessionRedirect(req.Session, r.URL.Path); err != nil {
			return nil, err
		}
		// Session requests extend a shared timeline; each must plan.
		eng, b, spec, done, err := s.planBatch(ctx, &req)
		if err != nil {
			return nil, err
		}
		done()
		resp := planResponse(spec, b.Result, eng.Mixers())
		resp.Session = req.Session
		resp.SessionOwner = s.sessionOwner(req.Session)
		resp.StartCycle = b.StartCycle
		return resp, nil
	}
	// Stateless plans are pure functions of the spec: coalesce concurrent
	// identical requests onto one leader.
	spec, err := parsePlanRequest(&req)
	if err != nil {
		return nil, &errBadRequest{err}
	}
	return coalesce(s, ctx, spec.flightKey("plan"), func() (PlanResponse, error) {
		eng, b, _, err := s.planStateless(ctx, &req, spec, false)
		if err != nil {
			return PlanResponse{}, err
		}
		resp := planResponse(spec, b.Result, eng.Mixers())
		resp.StartCycle = b.StartCycle
		return resp, nil
	}, func(resp *PlanResponse) { resp.Coalesced = true })
}

// streamResponse shapes a planned batch as a /v1/stream response.
func streamResponse(spec *planSpec, eng *core.Engine, b *core.Batch) StreamResponse {
	resp := StreamResponse{
		PlanResponse:        planResponse(spec, b.Result, eng.Mixers()),
		MaxSinglePassDemand: b.Result.PerPassDemand,
	}
	resp.StartCycle = b.StartCycle
	for _, em := range b.Result.Emissions() {
		resp.Emissions = append(resp.Emissions, EmissionPoint{Cycle: em.Cycle, Count: em.Count})
	}
	return resp
}

// serveStream answers POST /v1/stream: the plan plus its emission timeline
// and the storage-limited single-pass demand cap D'.
func (s *Server) serveStream(ctx context.Context, r *http.Request) (any, error) {
	var req PlanRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	s.applyNoiseDefaults(&req)
	if req.Session != "" {
		if err := s.sessionRedirect(req.Session, r.URL.Path); err != nil {
			return nil, err
		}
		eng, b, spec, done, err := s.planBatch(ctx, &req)
		if err != nil {
			return nil, err
		}
		done()
		resp := streamResponse(spec, eng, b)
		resp.Session = req.Session
		resp.SessionOwner = s.sessionOwner(req.Session)
		return resp, nil
	}
	spec, err := parsePlanRequest(&req)
	if err != nil {
		return nil, &errBadRequest{err}
	}
	return coalesce(s, ctx, spec.flightKey("stream"), func() (StreamResponse, error) {
		eng, b, _, err := s.planStateless(ctx, &req, spec, false)
		if err != nil {
			return StreamResponse{}, err
		}
		return streamResponse(spec, eng, b), nil
	}, func(resp *StreamResponse) { resp.Coalesced = true })
}

// serveExecute answers POST /v1/execute: plan, then replay cyberphysically
// on an auto-sized floorplan with optional fault injection. Executions are
// never coalesced — fault injection makes them distinct runs by design.
func (s *Server) serveExecute(ctx context.Context, r *http.Request) (any, error) {
	var req ExecuteRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	if req.FaultRate < 0 || req.FaultRate >= 1 {
		return nil, &errBadRequest{fmt.Errorf("fault_rate must be in [0,1), got %g", req.FaultRate)}
	}
	s.applyNoiseDefaults(&req.PlanRequest)
	if req.Session != "" {
		if err := s.sessionRedirect(req.Session, r.URL.Path); err != nil {
			return nil, err
		}
	}
	eng, b, spec, done, err := s.planBatch(ctx, &req.PlanRequest)
	if err != nil {
		return nil, err
	}
	defer done()

	storageCells := spec.storage
	if storageCells < 8 {
		storageCells = 8
	}
	layout, err := chip.AutoLayout(spec.target.N(), eng.Mixers(), storageCells)
	if err != nil {
		return nil, err
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	inj, err := faults.New(faults.Rate(seed, req.FaultRate))
	if err != nil {
		return nil, &errBadRequest{err}
	}
	pol, err := s.executePolicy(&req, b)
	if err != nil {
		return nil, err
	}
	rep, err := eng.ExecuteBatchCtx(ctx, b, layout, inj, pol)
	if err != nil {
		return nil, err
	}
	resp := ExecuteResponse{
		PlanResponse: planResponse(spec, b.Result, eng.Mixers()),
		Injected:     rep.Injected,
		Detected:     rep.Detected,
		Recovered:    rep.Recovered,
		Retries:      rep.Retries,
		Replays:      rep.Replays,
		Degradations: rep.Degradations,
		RunCycles:    rep.TotalCycles,
		ExtraCycles:  rep.ExtraCycles,
		Actuations:   rep.TotalActuations,
		RunEmitted:   rep.Emitted,
		MaxCFError:   rep.MaxCFError(),
	}
	resp.Session = req.Session
	resp.StartCycle = b.StartCycle
	return resp, nil
}

// executePolicy resolves the closed-loop policy of one /v1/execute run.
// With a noise model in play — the request's own noise fields, else the
// server's configured chip model — the sensor thresholds and recovery
// budget are derived from the closed-form error analysis of the plan about
// to run (runtime.DeriveFromModel) instead of the hand-tuned defaults; the
// reused full-size pass is the largest forest of the plan, so its analysis
// bounds every pass. An explicit recovery_budget always wins.
func (s *Server) executePolicy(req *ExecuteRequest, b *core.Batch) (runtime.Policy, error) {
	noise := errormodel.Params{SplitImbalance: req.SplitImbalance, DispenseError: req.DispenseError}
	if noise.SplitImbalance == 0 && noise.DispenseError == 0 {
		return runtime.Policy{RecoveryBudget: req.RecoveryBudget}, nil
	}
	an, err := errormodel.Analyze(b.Result.Passes[0].Schedule.Forest, noise)
	if err != nil {
		return runtime.Policy{}, &errBadRequest{err}
	}
	pol, err := runtime.DeriveFromModel(noise, an)
	if err != nil {
		return runtime.Policy{}, &errBadRequest{err}
	}
	if req.RecoveryBudget > 0 {
		pol.RecoveryBudget = req.RecoveryBudget
	}
	return pol, nil
}

// healthResponse is the /healthz body.
type healthResponse struct {
	Status   string `json:"status"`
	Sessions int    `json:"sessions"`
	Waiting  int64  `json:"waiting"`
}

// serveHealth answers GET /healthz: 200 while serving, 503 once draining.
func (s *Server) serveHealth(w http.ResponseWriter, _ *http.Request) {
	resp := healthResponse{Status: "ok", Sessions: s.pool.len(), Waiting: s.waiting.Load()}
	status := http.StatusOK
	if s.Draining() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// serveHealthLive answers GET /healthz/live: 200 whenever the process can
// run a handler at all — the restart-me signal is its absence, not its body.
func (s *Server) serveHealthLive(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "alive"})
}

// readyResponse is the /healthz/ready body: overall readiness plus the
// per-chip health of the fleet (when one is configured).
type readyResponse struct {
	Status      string             `json:"status"`
	Sessions    int                `json:"sessions"`
	Waiting     int64              `json:"waiting"`
	WAL         bool               `json:"wal"`
	Chips       []fleet.ChipHealth `json:"chips,omitempty"`
	FleetQueued int                `json:"fleet_queued,omitempty"`
	Cluster     *clusterReady      `json:"cluster,omitempty"`
}

// serveHealthReady answers GET /healthz/ready: 200 only when the server can
// accept new work right now. Distinguished not-ready states: "recovering"
// (WAL replay in progress), "draining" (graceful shutdown has begun) and
// "fleet-unavailable" (every chip dead or breaker-open). A degraded but
// serviceable fleet stays ready with status "degraded" and the per-chip
// detail in the body.
func (s *Server) serveHealthReady(w http.ResponseWriter, _ *http.Request) {
	resp := readyResponse{
		Status:   "ready",
		Sessions: s.pool.len(),
		Waiting:  s.waiting.Load(),
		WAL:      s.wal != nil,
		Cluster:  s.clusterHealth(),
	}
	status := http.StatusOK
	if s.fleet != nil {
		resp.Chips = s.fleet.Health()
		resp.FleetQueued = s.fleet.Queued()
		if !s.fleet.Available() {
			resp.Status = "fleet-unavailable"
			status = http.StatusServiceUnavailable
		} else {
			for _, c := range resp.Chips {
				if c.State != "healthy" {
					resp.Status = "degraded"
					break
				}
			}
		}
	}
	if s.recovering.Load() {
		resp.Status = "recovering"
		status = http.StatusServiceUnavailable
	}
	if s.Draining() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// serveMetrics dumps the obs registry in the CLI exporter format. When
// observability is disabled the body is empty (but still 200: the endpoint
// itself is healthy).
func (s *Server) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.setServingGauges()
	obs.WriteMetrics(w)
}
