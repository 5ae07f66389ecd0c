package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/wal"
)

// This file is the session half of the self-healing cluster tier: migrating
// a live session timeline between nodes, adopting a shipped timeline, the
// runtime membership endpoint that triggers migrations, and the 307 routing
// that makes session ownership authoritative instead of advisory.
//
// The migration protocol, source side first:
//
//  1. fence — under the session's request mutex the fenced flag goes up;
//     every later batch answers 409, so the snapshot is the timeline's last
//     word;
//  2. snapshot — the session's spec and completed-batch history are encoded
//     as DMFBWAL1 frames (wal.EncodeFrames) of sessionRecords, the same
//     compaction form a WAL boot rewrite produces: session-open followed by
//     batch-done records;
//  3. ship — POST {target}/v1/session/{id}/adopt with the frames; the target
//     folds them as boot recovery does (foldRecords) and replays them
//     through replaySession, which re-plans every batch and *verifies*
//     start-cycle/emitted against the logged values — a divergent replay is
//     a typed failure and the adopt is refused whole;
//  4. ack, then delete — only after the target answered 2xx does the source
//     drop the session (journaling the eviction) and tombstone it, so a
//     failed ship leaves the session resident and unfenced; acked work is
//     never in zero places.
//
// Routing: a request naming a session this node does not hold answers 307 to
// the ring owner (or the tombstoned receiver). Possession wins over ring
// placement — a resident session serves locally even off-owner — so a ring
// change never strands a timeline that has not migrated yet.

// Typed session-routing errors.
var (
	// errSessionFenced refuses writes to a session mid-migration. HTTP 409.
	errSessionFenced = errors.New("server: session is migrating")
	// errSessionNotFound reports a migrate/adopt naming no resident session.
	errSessionNotFound = errors.New("server: session not resident on this node")
	// errClusterDisabled reports cluster endpoints without a cluster. HTTP 501.
	errClusterDisabled = errors.New("server: cluster tier not configured (start with -peers)")
	// errSnapshotRejected refuses an adopt whose snapshot does not decode,
	// fold or replay to a verified timeline. HTTP 422.
	errSnapshotRejected = errors.New("server: adopt snapshot rejected")
)

// errSessionMoved carries a 307 redirect to the node holding a session.
type errSessionMoved struct{ location string }

func (e *errSessionMoved) Error() string {
	return "server: session has moved: " + e.location
}

// sessionRedirect decides whether a session request serves here or answers
// 307. nil means serve locally. Precedence: tombstone (the session was
// shipped to a specific node) → possession (resident sessions serve locally
// regardless of ring placement) → ring owner. A redirect needs a resolvable
// peer URL; an unknown owner falls back to serving locally, which keeps a
// half-configured fleet available.
func (s *Server) sessionRedirect(name, path string) error {
	if s.clusterNode == nil || name == "" {
		return nil
	}
	s.migratedMu.Lock()
	target, tombstoned := s.migrated[name]
	s.migratedMu.Unlock()
	if tombstoned {
		if u := s.clusterNode.PeerURL(target); u != "" {
			obs.Inc("server.sessions.redirected")
			return &errSessionMoved{location: u + path}
		}
		return nil
	}
	if s.pool.contains(name) {
		return nil
	}
	owner := s.clusterNode.Owner("session|" + name)
	if owner == "" || owner == s.clusterNode.Self() {
		return nil
	}
	if u := s.clusterNode.PeerURL(owner); u != "" {
		obs.Inc("server.sessions.redirected")
		return &errSessionMoved{location: u + path}
	}
	return nil
}

// migrateResponse answers POST /v1/session/{id}/migrate.
type migrateResponse struct {
	Session string `json:"session"`
	Target  string `json:"target"`
	Batches int    `json:"batches"`
	Bytes   int    `json:"bytes"`
}

// serveSessionMigrate answers POST /v1/session/{id}/migrate[?target=node]:
// the admin path shipping a resident session to another member (default:
// the session key's ring owner).
func (s *Server) serveSessionMigrate(ctx context.Context, r *http.Request) (any, error) {
	if s.clusterNode == nil {
		return nil, errClusterDisabled
	}
	name := r.PathValue("id")
	target := r.URL.Query().Get("target")
	if target == "" {
		target = s.clusterNode.Owner("session|" + name)
	}
	if target == "" || target == s.clusterNode.Self() {
		return nil, &errBadRequest{fmt.Errorf("migration target %q is this node; nothing to move", target)}
	}
	return s.migrateSession(ctx, name, target)
}

// migrateSession runs the fence → snapshot → ship → delete protocol for one
// resident session. On any failure before the target's ack the session is
// unfenced and stays resident — the timeline is never in zero places.
func (s *Server) migrateSession(ctx context.Context, name, target string) (*migrateResponse, error) {
	sess, release, ok := s.pool.peek(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", errSessionNotFound, name)
	}
	defer release()

	sess.reqMu.Lock()
	if sess.fenced {
		sess.reqMu.Unlock()
		return nil, fmt.Errorf("%w: %q", errSessionFenced, name)
	}
	sess.fenced = true
	recs, batches := sessionRecords(name, sess.spec, sess.history), len(sess.history)
	sess.reqMu.Unlock()

	unfence := func() {
		sess.reqMu.Lock()
		sess.fenced = false
		sess.reqMu.Unlock()
	}

	frames, err := wal.EncodeFrames(recs)
	if err != nil {
		unfence()
		return nil, fmt.Errorf("server: snapshot session %q: %w", name, err)
	}
	if err := s.clusterNode.Adopt(ctx, target, name, frames); err != nil {
		unfence()
		obs.Inc("server.sessions.migrate_failed")
		return nil, fmt.Errorf("server: ship session %q to %s: %w", name, target, err)
	}

	// The target acked a verified replay: delete here, tombstone the move.
	s.pool.remove(name)
	s.migratedMu.Lock()
	s.migrated[name] = target
	s.migratedMu.Unlock()
	obs.Inc("server.sessions.migrated")
	if obs.Enabled() {
		obs.Emit("server.session_migrated", map[string]any{
			"session": name, "target": target, "batches": batches, "bytes": len(frames),
		})
	}
	return &migrateResponse{Session: name, Target: target, Batches: batches, Bytes: len(frames)}, nil
}

// adoptResponse answers POST /v1/session/{id}/adopt.
type adoptResponse struct {
	Session  string `json:"session"`
	Batches  int    `json:"batches"`
	Replayed int    `json:"replayed"`
}

// serveSessionAdopt answers POST /v1/session/{id}/adopt — the receiving half
// of a migration. The body is the source's DMFBWAL1 snapshot; it is decoded
// with the no-salvage wire parser, folded through the recovery state machine,
// and replayed onto a fresh engine with the logged start-cycle/emitted
// verified batch by batch. Only a bit-identical replay is acked 2xx; any
// divergence, corruption or inconsistency is errSnapshotRejected (422) and
// nothing is adopted. Re-adopting an already-resident session with the same
// fingerprint is idempotent (the retried ship after a lost ack); a different
// fingerprint is a 409.
func (s *Server) serveSessionAdopt(ctx context.Context, r *http.Request) (any, error) {
	if s.clusterNode == nil {
		return nil, errClusterDisabled
	}
	name := r.PathValue("id")
	data, err := readBody(r)
	if err != nil {
		return nil, err
	}
	rs, err := decodeSnapshot(name, data)
	if err != nil {
		obs.Inc("server.sessions.adopt_rejected")
		return nil, err
	}

	if sess, release, ok := s.pool.peek(name); ok {
		same := sess.spec.fingerprint() == rs.spec.fingerprint()
		release()
		if !same {
			return nil, fmt.Errorf("%w: adopt of %q", errSessionConflict, name)
		}
		// Retried ship after a lost ack: the timeline is already here.
		return adoptResponse{Session: name, Batches: len(rs.batches)}, nil
	}

	history, _, replayed, err := s.replaySession(ctx, rs)
	if err != nil {
		// Replay divergence is the typed integrity failure of the protocol:
		// refuse the adopt so the source keeps the (only true) timeline.
		obs.Inc("server.sessions.adopt_rejected")
		return nil, fmt.Errorf("%w: %w", errSnapshotRejected, err)
	}
	// The session now lives here: journal it before acking, so a crash on
	// this node after the source deleted still recovers the timeline.
	if s.wal != nil {
		for _, rec := range sessionRecords(name, rs.spec, history) {
			s.wal.AppendAsync(rec)
		}
		if err := s.wal.Sync(); err != nil {
			return nil, fmt.Errorf("server: journal adopted session: %w", err)
		}
	}
	// If this node had previously shipped the session away, the move is
	// undone: the timeline lives here again.
	s.migratedMu.Lock()
	delete(s.migrated, name)
	s.migratedMu.Unlock()
	obs.Inc("server.sessions.adopted")
	return adoptResponse{Session: name, Batches: len(rs.batches), Replayed: replayed}, nil
}

// decodeSnapshot decodes an adopt body into the one session it carries.
// The frames decode without repair and fold as a boot log does; the fold
// must hold exactly one session — named by the path, opened with a valid
// spec, consistent and not evicted — and no plan-key records. Every
// refusal is errSnapshotRejected.
func decodeSnapshot(name string, data []byte) (*recSession, error) {
	recs, err := wal.DecodeFrames(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errSnapshotRejected, err)
	}
	f := foldRecords(recs)
	if len(f.planKeys) > 0 {
		return nil, fmt.Errorf("%w: snapshot for %q carries plan-key records", errSnapshotRejected, name)
	}
	if len(f.sessions) != 1 {
		return nil, fmt.Errorf("%w: snapshot for %q holds %d sessions, want 1", errSnapshotRejected, name, len(f.sessions))
	}
	switch rs := f.sessions[0]; {
	case rs.name != name:
		return nil, fmt.Errorf("%w: snapshot for %q names session %q", errSnapshotRejected, name, rs.name)
	case rs.broken != "":
		return nil, fmt.Errorf("%w: snapshot for %q inconsistent: %s", errSnapshotRejected, name, rs.broken)
	case rs.evicted:
		return nil, fmt.Errorf("%w: snapshot for %q carries an eviction", errSnapshotRejected, name)
	default:
		return rs, nil
	}
}

// memberChange is the JSON body of POST /v1/cluster/members.
type memberChange struct {
	Action string `json:"action"` // "join" or "leave"
	ID     string `json:"id"`
	URL    string `json:"url,omitempty"` // required for join
}

// membersResponse answers POST /v1/cluster/members.
type membersResponse struct {
	Members  []string        `json:"members"`
	Migrated []string        `json:"migrated,omitempty"`
	Failed   []FailedSession `json:"failed,omitempty"`
}

// serveClusterMembers answers POST /v1/cluster/members: runtime membership
// change on this node's view of the ring. The sequence is swap → drain →
// migrate: the immutable ring is atomically replaced, in-flight single-
// flight builds and async publishes against the old ring run to completion
// (their artifacts stay fetchable wherever they landed; the replica fan-out
// re-converges placement), and every resident session whose owner moved off
// this node is shipped to its new owner. Migration failures are reported,
// never silent — the session stays resident and serves locally until a
// retry succeeds.
func (s *Server) serveClusterMembers(ctx context.Context, r *http.Request) (any, error) {
	if s.clusterNode == nil {
		return nil, errClusterDisabled
	}
	var req memberChange
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	var err error
	switch req.Action {
	case "join":
		err = s.clusterNode.AddPeer(cluster.Peer{ID: req.ID, URL: req.URL})
	case "leave":
		err = s.clusterNode.RemovePeer(req.ID)
	default:
		err = &errBadRequest{fmt.Errorf("unknown action %q (want join or leave)", req.Action)}
	}
	if err != nil {
		return nil, err
	}

	// Drain work keyed by the old ring before migrating against the new one.
	s.flights.drain()
	s.WaitPublish()

	resp := membersResponse{Members: s.clusterNode.Ring().Members()}
	self := s.clusterNode.Self()
	for _, sess := range s.pool.snapshot() {
		owner := s.clusterNode.Owner("session|" + sess.name)
		if owner == "" || owner == self {
			continue
		}
		if _, err := s.migrateSession(ctx, sess.name, owner); err != nil {
			resp.Failed = append(resp.Failed, FailedSession{Session: sess.name, Error: err.Error()})
			continue
		}
		resp.Migrated = append(resp.Migrated, sess.name)
	}
	return resp, nil
}
