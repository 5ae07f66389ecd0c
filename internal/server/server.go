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
	// PlanCache holds every plan and demand scan this server memoises; give
	// each server of a process its own (multi-node tests and benches run
	// several in one process) so none shares another's. Nil selects
	// plancache.Default(), or on a tiered server (Artifacts or Cluster set)
	// a cache of its own at DefaultCapacity: the artifact tier is installed
	// under the cache, never under the default.
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

	// planKeys dedups the stateless plan keys journaled to the WAL. It holds
	// at most the plan cache's capacity of keys; planKeyOrder lists them
	// oldest first.
	planKeysMu   sync.Mutex
	planKeys     map[specKey]bool
	planKeyOrder []specKey

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
		planKeys:    map[specKey]bool{},
		migrated:    map[string]string{},
	}
	if s.artifacts != nil || s.clusterNode != nil {
		if s.planCache == nil {
			s.planCache = plancache.New(plancache.DefaultCapacity)
		}
		s.planCache.SetTier(artifactTier{s})
	} else if s.planCache == nil {
		s.planCache = plancache.Default()
	}
	if s.wal != nil {
		s.recovering.Store(true)
		s.pool.onEvict = func(name string) {
			s.wal.AppendAsync(wal.Record{Kind: wal.KindSessionEvict, Session: name})
		}
	}
	return s
}

// Handler returns the routed HTTP handler. Every /v1 route goes through
// one wrapper (handle). Routes that plan are admitted: refused while the WAL
// recovers, passed through admission control and counted in the drain
// census. /healthz and /metrics bypass the wrapper so operators can always
// observe a saturated server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range []struct {
		pattern, name string
		plans         bool
		fn            endpoint
	}{
		{"POST /v1/plan", "plan", true, s.servePlan},
		{"POST /v1/stream", "stream", true, s.serveStream},
		{"POST /v1/execute", "execute", true, s.serveExecute},
		{"POST /v1/assay", "assay", true, s.serveAssay},
		{"POST /v1/artifact/build", "artifact_build", true, s.serveArtifactBuild},
		{"POST /v1/session/{id}/adopt", "session_adopt", true, s.serveSessionAdopt},
		{"GET /v1/recovery", "recovery", false, s.serveRecovery},
		{"GET /v1/artifact/{addr}", "artifact_get", false, s.serveArtifactGet},
		{"PUT /v1/artifact/{addr}", "artifact_put", false, s.serveArtifactPut},
		{"POST /v1/session/{id}/migrate", "session_migrate", false, s.serveSessionMigrate},
		{"POST /v1/cluster/members", "cluster_members", false, s.serveClusterMembers},
	} {
		mux.HandleFunc(rt.pattern, s.handle(rt.name, rt.plans, rt.fn))
	}
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

// Admission refusals. Both are answered with the configured Retry-After.
var (
	// errDraining refuses planning work once Drain has begun. HTTP 503.
	errDraining = errors.New("server is draining")
	// errQueueFull refuses a request when every admission slot is taken and
	// the queue is full. HTTP 429.
	errQueueFull = errors.New("admission queue full")
)

// admit acquires an admission slot, honoring the drain flag, the queue
// bound and the request context. The returned release func must be called
// exactly once after the request finishes.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	// The census admission and the drain flag are checked under one lock,
	// so no request slips past a Drain that has begun.
	if !s.beginRequest() {
		return nil, errDraining
	}
	select {
	case s.slots <- struct{}{}:
	default:
		// No free slot: wait, but only if the queue has room.
		if s.waiting.Add(1) > int64(s.cfg.MaxQueue) {
			s.waiting.Add(-1)
			s.endRequest()
			obs.Inc("server.admission.rejected")
			return nil, errQueueFull
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

// endpoint is one /v1 route: it reads its own request and returns the
// response or an error. handle renders a []byte response as
// application/octet-stream, a nil one as 204 and anything else as JSON 200;
// an error becomes the JSON error envelope under its statusFor status.
type endpoint func(ctx context.Context, r *http.Request) (any, error)

// handle wraps an endpoint with admission (when plans is set), request
// metrics, the structured access log and uniform rendering.
func (s *Server) handle(name string, plans bool, fn endpoint) http.HandlerFunc {
	// Metric names are built once per endpoint, not once per request.
	requests, latency := "server.requests."+name, "server.latency_ms."+name
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		obs.Inc("server.requests")
		obs.Inc(requests)

		status, err := s.serve(w, r, plans, fn)
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

// serve runs one request — admitted first when the route plans — and writes
// its response, returning the status for the access log. The admission slot
// is held until the response is written.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, plans bool, fn endpoint) (int, error) {
	if plans {
		if s.recovering.Load() {
			return s.writeError(w, errRecovering)
		}
		release, err := s.admit(r.Context())
		if err != nil {
			return s.writeError(w, err)
		}
		defer release()
	}
	resp, err := fn(r.Context(), r)
	if err != nil {
		return s.writeError(w, err)
	}
	switch body := resp.(type) {
	case nil:
		w.WriteHeader(http.StatusNoContent)
		return http.StatusNoContent, nil
	case []byte:
		w.Header().Set("Content-Type", "application/octet-stream")
		_, err := w.Write(body)
		return http.StatusOK, err
	}
	return http.StatusOK, writeJSON(w, http.StatusOK, resp)
}

// errBadRequest marks client-side validation failures for statusFor.
type errBadRequest struct{ err error }

func (e *errBadRequest) Error() string { return e.err.Error() }
func (e *errBadRequest) Unwrap() error { return e.err }

// statusTable maps the stack's typed errors onto HTTP statuses: the first
// row holding a sentinel the error matches (errors.Is) gives the status. It
// is the one place a rejection picks its status.
var statusTable = []struct {
	status int
	errs   []error
}{
	// A refused adopt is 422 whatever its cause, so the source keeps the
	// timeline.
	{http.StatusUnprocessableEntity, []error{errSnapshotRejected}},
	{http.StatusBadRequest, []error{cluster.ErrBadPeer}},
	{http.StatusConflict, []error{errSessionConflict, errSessionFenced}},
	{http.StatusNotFound, []error{errSessionNotFound, errArtifactNotFound, cluster.ErrNotMember, cluster.ErrNotFound}},
	{http.StatusNotImplemented, []error{errFleetDisabled, errArtifactsDisabled, errClusterDisabled}},
	{http.StatusTooManyRequests, []error{errQueueFull, fleet.ErrSaturated}},
	// Deadline expiry is the server refusing to plan any longer (504); any
	// other cancellation means the client hung up (503).
	{http.StatusGatewayTimeout, []error{context.DeadlineExceeded}},
	{http.StatusServiceUnavailable, []error{errRecovering, errDraining, fleet.ErrNoChips, cancel.ErrCanceled}},
	{http.StatusBadGateway, []error{fleet.ErrAssayFailed, cluster.ErrPeerDown, cluster.ErrUnknownPeer}},
	// A plan, chip or artifact the client's bytes ask for that cannot exist
	// is the sender's problem; a bad artifact is never grounds to serve it.
	{http.StatusUnprocessableEntity, []error{
		stream.ErrStorage, core.ErrBadConfig, core.ErrPersistStorage, forest.ErrBadDemand, forest.ErrArenaOverflow,
		chip.ErrTooManyModules, runtime.ErrUnrecoverable,
		artifact.ErrCorrupt, artifact.ErrIntegrity, artifact.ErrVersion, artifact.ErrVerify,
	}},
}

// statusFor maps an error onto its HTTP status: a client error is 400, a
// migrated session 307, then the first statusTable match; anything else is
// a 500.
func statusFor(err error) int {
	var bad *errBadRequest
	var moved *errSessionMoved
	switch {
	case errors.As(err, &bad):
		return http.StatusBadRequest
	case errors.As(err, &moved):
		return http.StatusTemporaryRedirect
	}
	for _, row := range statusTable {
		for _, sentinel := range row.errs {
			if errors.Is(err, sentinel) {
				return row.status
			}
		}
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}

// writeError writes err as the JSON error envelope under its statusFor
// status and returns that status with err. A migrated session is not an
// error but an address: the 307 points Location at the node holding the
// timeline (307 preserves the method and body, so standard clients re-POST
// transparently). Every 429 and 503 carries the configured Retry-After.
func (s *Server) writeError(w http.ResponseWriter, err error) (int, error) {
	status := statusFor(err)
	switch status {
	case http.StatusTemporaryRedirect:
		var moved *errSessionMoved
		errors.As(err, &moved)
		w.Header().Set("Location", moved.location)
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds())))
	}
	obs.Inc("server.errors")
	writeJSON(w, status, errorResponse{Error: err.Error()})
	return status, err
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

// planBody is the JSON body of a planning endpoint: a PlanRequest, or an
// endpoint's request embedding one (which inherits plan and may override
// check with its own field checks).
type planBody interface {
	plan() *PlanRequest
	check() error
}

// intake is the one front half of every planning endpoint. It decodes body;
// fills the noise fields from the server's chip model when the client
// supplied none (so a daemon booted with -split-imbalance/-dispense-error
// applies its chip's physics to every error-aware plan and every execute
// run); runs the endpoint's own checks; answers 307 for a session this node
// does not hold; validates the plan; and returns the spec with a context
// carrying the request's deadline (timeout_ms clamped to MaxTimeout, else
// DefaultTimeout). Everything after intake — session batches, coalesced
// followers, executions — runs under that deadline. cancel must be called
// when the request is done.
func (s *Server) intake(ctx context.Context, r *http.Request, body planBody) (*planSpec, context.Context, context.CancelFunc, error) {
	if err := decode(r, body); err != nil {
		return nil, nil, nil, err
	}
	req := body.plan()
	if req.SplitImbalance == 0 && req.DispenseError == 0 {
		req.SplitImbalance = s.cfg.Noise.SplitImbalance
		req.DispenseError = s.cfg.Noise.DispenseError
	}
	if err := body.check(); err != nil {
		return nil, nil, nil, &errBadRequest{err}
	}
	if err := s.sessionRedirect(req.Session, r.URL.Path); err != nil {
		return nil, nil, nil, err
	}
	spec, err := parsePlanRequest(req)
	if err != nil {
		return nil, nil, nil, &errBadRequest{err}
	}
	d := s.cfg.DefaultTimeout
	if ms := time.Duration(req.TimeoutMS); ms > 0 {
		d = min(ms, s.cfg.MaxTimeout/time.Millisecond) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(ctx, min(d, s.cfg.MaxTimeout))
	return spec, ctx, cancel, nil
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
	if req.Session == "" {
		eng, err = s.newEngine(spec)
		return eng, nil, func() {}, err
	}
	build := func() (*core.Engine, error) { return s.newEngine(spec) }
	// With a WAL attached, the session-open record is appended under the
	// shard lock at insert, so its log position precedes every batch
	// record of the session.
	var onInsert func()
	if s.wal != nil {
		onInsert = func() { s.wal.AppendAsync(sessionRecords(req.Session, spec, nil)[0]) }
	}
	sess, release, err = s.pool.acquire(req.Session, spec, build, onInsert)
	if err != nil {
		return nil, nil, nil, err
	}
	return sess.engine, sess, release, nil
}

// planBatch resolves the engine of a validated request and plans one batch
// on it. It is the front half of every planning endpoint.
// The returned done func releases the session pin; callers must invoke it
// exactly once (the engine must not be used after).
func (s *Server) planBatch(ctx context.Context, req *PlanRequest, spec *planSpec) (*core.Engine, *core.Batch, func(), error) {
	eng, sess, release, err := s.engineFor(req, spec)
	if err != nil {
		return nil, nil, nil, err
	}
	b, err := s.requestBatch(ctx, eng, sess, req.Demand)
	if err != nil {
		release()
		return nil, nil, nil, err
	}
	return eng, b, release, nil
}

// servePlan answers POST /v1/plan.
func (s *Server) servePlan(ctx context.Context, r *http.Request) (any, error) {
	return servePlanned(s, ctx, r, "plan", planResponse, func(resp *PlanResponse) *PlanResponse { return resp })
}

// serveStream answers POST /v1/stream: the plan plus its emission timeline
// and the storage-limited single-pass demand cap D'.
func (s *Server) serveStream(ctx context.Context, r *http.Request) (any, error) {
	return servePlanned(s, ctx, r, "stream", streamResponse, func(resp *StreamResponse) *PlanResponse { return &resp.PlanResponse })
}

// servePlanned is /v1/plan and /v1/stream, which differ only in the shape
// of their response (shape builds it, head reaches its PlanResponse). A
// session request extends its session's timeline, so each one plans.
// Stateless plans are pure functions of the spec: concurrent identical
// requests coalesce onto one leader, a follower's copy of the leader's
// response is marked coalesced, and the leader journals the spec for
// recovery warm-up.
func servePlanned[T any](s *Server, ctx context.Context, r *http.Request, name string,
	shape func(*planSpec, *core.Engine, *core.Batch) T, head func(*T) *PlanResponse) (any, error) {
	var req PlanRequest
	spec, ctx, cancel, err := s.intake(ctx, r, &req)
	if err != nil {
		return nil, err
	}
	defer cancel()
	if req.Session != "" {
		eng, b, done, err := s.planBatch(ctx, &req, spec)
		if err != nil {
			return nil, err
		}
		done()
		resp := shape(spec, eng, b)
		h := head(&resp)
		h.Session = req.Session
		h.SessionOwner = s.sessionOwner(req.Session)
		return resp, nil
	}
	v, err, shared := s.flights.do(ctx, spec.flightKey(name), func() (any, error) {
		eng, b, done, err := s.planBatch(ctx, &req, spec)
		if err != nil {
			return nil, err
		}
		done()
		s.notePlanKey(spec)
		return shape(spec, eng, b), nil
	})
	if err != nil || !shared {
		return v, err
	}
	resp := v.(T)
	head(&resp).Coalesced = true
	return resp, nil
}

// streamResponse shapes a planned batch as a /v1/stream response.
func streamResponse(spec *planSpec, eng *core.Engine, b *core.Batch) StreamResponse {
	resp := StreamResponse{
		PlanResponse:        planResponse(spec, eng, b),
		MaxSinglePassDemand: b.Result.PerPassDemand,
	}
	for _, em := range b.Result.Emissions() {
		resp.Emissions = append(resp.Emissions, EmissionPoint{Cycle: em.Cycle, Count: em.Count})
	}
	return resp
}

// check bounds the execution knobs of an ExecuteRequest.
func (r *ExecuteRequest) check() error {
	if r.FaultRate < 0 || r.FaultRate >= 1 {
		return fmt.Errorf("fault_rate must be in [0,1), got %g", r.FaultRate)
	}
	return nil
}

// serveExecute answers POST /v1/execute: plan, then replay cyberphysically
// on an auto-sized floorplan with optional fault injection. Executions are
// never coalesced — fault injection makes them distinct runs by design.
func (s *Server) serveExecute(ctx context.Context, r *http.Request) (any, error) {
	var req ExecuteRequest
	spec, ctx, cancel, err := s.intake(ctx, r, &req)
	if err != nil {
		return nil, err
	}
	defer cancel()
	eng, b, done, err := s.planBatch(ctx, &req.PlanRequest, spec)
	if err != nil {
		return nil, err
	}
	defer done()

	// The floorplan holds every droplet any pass stores at once: an
	// unlimited-storage plan may store more than the 8-cell default.
	storageCells := max(spec.storage, 8)
	for _, p := range b.Result.Passes {
		storageCells = max(storageCells, p.Storage)
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
		PlanResponse: planResponse(spec, eng, b),
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
	return resp, nil
}

// executePolicy resolves the closed-loop policy of one /v1/execute run.
// With a noise model in play — the request's own noise fields, else the
// server's configured chip model — the sensor thresholds and recovery
// budget are derived from the closed-form error analysis of the plan about
// to run (runtime.DeriveFromModel) instead of the hand-tuned defaults. The
// analysis is the plan's base graph's — the selected one on an error-aware
// batch — whose interval every pass's forest shares (DESIGN §14); the
// reused full-size pass is the largest forest of the plan, so its task
// count sizes the budget. An explicit recovery_budget always wins.
func (s *Server) executePolicy(req *ExecuteRequest, b *core.Batch) (runtime.Policy, error) {
	noise := errormodel.Params{SplitImbalance: req.SplitImbalance, DispenseError: req.DispenseError}
	if noise.SplitImbalance == 0 && noise.DispenseError == 0 {
		return runtime.Policy{RecoveryBudget: req.RecoveryBudget}, nil
	}
	an, err := errormodel.AnalyzeGraph(b.Result.Config.Base, noise)
	if err != nil {
		return runtime.Policy{}, &errBadRequest{err}
	}
	an.Mixes = b.Result.Passes[0].Plan.Stats.Mixes
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
