package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/plancache"
	"repro/internal/wal"
)

// sessionOwnedBy finds a session name whose ring owner is the wanted member.
func sessionOwnedBy(t *testing.T, r *cluster.Ring, owner string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		name := fmt.Sprintf("mig-sess-%d", i)
		if r.Owner("session|"+name) == owner {
			return name
		}
	}
	t.Fatalf("no session name hashes to %s", owner)
	return ""
}

// planSession posts one session batch and returns the response.
func planSession(t *testing.T, baseURL, session string, demand int) PlanResponse {
	t.Helper()
	var resp PlanResponse
	code := post(t, baseURL+"/v1/plan", PlanRequest{Ratio: "1:2:5:8", Demand: demand, Session: session}, &resp)
	if code != http.StatusOK {
		t.Fatalf("session batch: status %d", code)
	}
	return resp
}

// TestSessionMigrationRoundTrip is the tentpole contract end to end: batches
// on the source, explicit migrate, the timeline continues bit-identically on
// the target, and the source answers 307 pointing at the holder.
func TestSessionMigrationRoundTrip(t *testing.T) {
	nodes := newTestCluster(t, 2)
	src := nodes[0]
	name := sessionOwnedBy(t, src.srv.clusterNode.Ring(), src.id)

	demands := []int{6, 4, 8}
	var starts []int
	for _, d := range demands {
		starts = append(starts, planSession(t, src.ts.URL, name, d).StartCycle)
	}

	// Control: the same batch sequence on an isolated server pins the
	// deterministic timeline migration must preserve.
	_, ctrl := newTestServer(t, Config{})
	for i, d := range demands {
		if got := planSession(t, ctrl.URL, name, d).StartCycle; got != starts[i] {
			t.Fatalf("control batch %d start=%d, cluster saw %d", i+1, got, starts[i])
		}
	}

	var mig migrateResponse
	code := post(t, src.ts.URL+"/v1/session/"+name+"/migrate?target="+nodes[1].id, struct{}{}, &mig)
	if code != http.StatusOK {
		t.Fatalf("migrate: status %d", code)
	}
	if mig.Target != nodes[1].id || mig.Batches != len(demands) {
		t.Fatalf("migrate response %+v", mig)
	}
	if src.srv.pool.contains(name) {
		t.Fatal("source still holds the migrated session")
	}
	if !nodes[1].srv.pool.contains(name) {
		t.Fatal("target does not hold the migrated session")
	}

	// The next batch, served by the new owner, lands exactly where the
	// control timeline puts it — the replay was bit-identical.
	next := planSession(t, nodes[1].ts.URL, name, 5)
	ctrlNext := planSession(t, ctrl.URL, name, 5)
	if next.StartCycle != ctrlNext.StartCycle || next.Emitted != ctrlNext.Emitted {
		t.Fatalf("post-migration batch start=%d emitted=%d, control start=%d emitted=%d",
			next.StartCycle, next.Emitted, ctrlNext.StartCycle, ctrlNext.Emitted)
	}

	// The source tombstoned the session: a request there answers 307 (auto-
	// followed by the client) and serves from the new owner.
	viaRedirect := planSession(t, src.ts.URL, name, 3)
	ctrlAgain := planSession(t, ctrl.URL, name, 3)
	if viaRedirect.StartCycle != ctrlAgain.StartCycle {
		t.Fatalf("redirected batch start=%d, control start=%d", viaRedirect.StartCycle, ctrlAgain.StartCycle)
	}
}

// TestSessionMigrateFailureLeavesSessionServing: a ship to an unreachable
// target fails typed, and the session is unfenced and keeps serving locally
// — the timeline is never in zero places.
func TestSessionMigrateFailureLeavesSessionServing(t *testing.T) {
	nodes := newTestCluster(t, 2)
	src := nodes[0]
	name := sessionOwnedBy(t, src.srv.clusterNode.Ring(), src.id)
	first := planSession(t, src.ts.URL, name, 6)

	if code := post(t, src.ts.URL+"/v1/session/"+name+"/migrate?target=ghost", struct{}{}, nil); code != http.StatusBadGateway {
		t.Fatalf("migrate to unknown peer: status %d, want 502", code)
	}
	if !src.srv.pool.contains(name) {
		t.Fatal("failed migration dropped the session")
	}
	// Unfenced: the next batch serves normally, continuing the timeline.
	if next := planSession(t, src.ts.URL, name, 4); next.StartCycle <= first.StartCycle {
		t.Fatalf("post-failure batch start=%d, want after %d", next.StartCycle, first.StartCycle)
	}
	// Migrating a non-resident session is a 404, not a panic.
	if code := post(t, src.ts.URL+"/v1/session/no-such-session/migrate?target="+nodes[1].id, struct{}{}, nil); code != http.StatusNotFound {
		t.Fatalf("migrate absent session: status %d, want 404", code)
	}
	// Migrating to self is a 400: there is nothing to move.
	if code := post(t, src.ts.URL+"/v1/session/"+name+"/migrate?target="+src.id, struct{}{}, nil); code != http.StatusBadRequest {
		t.Fatalf("migrate to self: status %d, want 400", code)
	}
}

// TestSessionAdoptRejectsBadSnapshots: corruption, session-name mismatches,
// divergent replays and fingerprint conflicts are all typed refusals; a
// valid re-adopt of a resident session is idempotent.
func TestSessionAdoptRejectsBadSnapshots(t *testing.T) {
	nodes := newTestCluster(t, 2)
	target := nodes[1]

	// Pin the true batch-1 timeline values with a control run, so the valid
	// snapshot replays cleanly and the diverged one provably cannot.
	_, ctrl := newTestServer(t, Config{})
	seed := planSession(t, ctrl.URL, "seed", 6)

	spec, err := parsePlanRequest(&PlanRequest{Ratio: "1:2:5:8", Demand: 1})
	if err != nil {
		t.Fatal(err)
	}
	ws := specToWAL(spec)
	frames, err := wal.EncodeFrames([]wal.Record{
		{Kind: wal.KindSessionOpen, Session: "adoptee", Fingerprint: spec.fingerprint(), Spec: ws},
		{Kind: wal.KindBatchDone, Session: "adoptee", Batch: 1, Demand: 6,
			StartCycle: seed.StartCycle, Emitted: seed.Emitted},
	})
	if err != nil {
		t.Fatal(err)
	}
	adopt := func(session string, body []byte) int {
		req, err := http.NewRequest(http.MethodPost, target.ts.URL+"/v1/session/"+session+"/adopt", bytes.NewReader(body))
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

	// A flipped byte in the stream is refused whole.
	bad := bytes.Clone(frames)
	bad[len(bad)/2] ^= 0x20
	if code := adopt("adoptee", bad); code != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt adopt: status %d, want 422", code)
	}
	// Path/session mismatch is refused.
	if code := adopt("other-session", frames); code != http.StatusUnprocessableEntity {
		t.Fatalf("mismatched adopt: status %d, want 422", code)
	}
	if target.srv.pool.contains("adoptee") {
		t.Fatal("refused adopt left a session behind")
	}

	// The valid snapshot adopts, replays verified, and is resident.
	if code := adopt("adoptee", frames); code != http.StatusOK {
		t.Fatalf("valid adopt: status %d", code)
	}
	if !target.srv.pool.contains("adoptee") {
		t.Fatal("adopted session not resident")
	}
	// Re-adopt (the retried ship after a lost ack) is idempotent.
	if code := adopt("adoptee", frames); code != http.StatusOK {
		t.Fatalf("idempotent re-adopt: status %d", code)
	}
	// The adopted timeline continues exactly where the control's does.
	next := planSession(t, target.ts.URL, "adoptee", 4)
	ctrlNext := planSession(t, ctrl.URL, "seed", 4)
	if next.StartCycle != ctrlNext.StartCycle {
		t.Fatalf("adopted batch start=%d, control start=%d", next.StartCycle, ctrlNext.StartCycle)
	}

	// Same name, different engine config: conflict.
	spec2, err := parsePlanRequest(&PlanRequest{Ratio: "1:2:5:8", Demand: 1, Mixers: 2})
	if err != nil {
		t.Fatal(err)
	}
	conflict, err := wal.EncodeFrames([]wal.Record{
		{Kind: wal.KindSessionOpen, Session: "adoptee", Fingerprint: spec2.fingerprint(), Spec: specToWAL(spec2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if code := adopt("adoptee", conflict); code != http.StatusConflict {
		t.Fatalf("conflicting adopt: status %d, want 409", code)
	}

	// A divergent snapshot — logged start/emitted deterministic replay cannot
	// reproduce — is a typed integrity refusal, never a silent adopt.
	diverged, err := wal.EncodeFrames([]wal.Record{
		{Kind: wal.KindSessionOpen, Session: "diverged", Fingerprint: spec.fingerprint(), Spec: ws},
		{Kind: wal.KindBatchDone, Session: "diverged", Batch: 1, Demand: 6,
			StartCycle: seed.StartCycle + 999, Emitted: seed.Emitted},
	})
	if err != nil {
		t.Fatal(err)
	}
	if code := adopt("diverged", diverged); code != http.StatusUnprocessableEntity {
		t.Fatalf("diverged adopt: status %d, want 422", code)
	}
	if target.srv.pool.contains("diverged") {
		t.Fatal("diverged snapshot was adopted")
	}
}

// TestClusterMembersRuntimeChange: a join through POST /v1/cluster/members
// swaps the ring and ships every resident session whose owner moved; the
// shipped session serves on the joiner with its timeline intact.
func TestClusterMembersRuntimeChange(t *testing.T) {
	nodes := newTestCluster(t, 3)
	a, b, joiner := nodes[0], nodes[1], nodes[2]

	// Narrow node-0's view to {node-0, node-1}: the full newTestCluster ring
	// includes node-2, so leave it first. No resident sessions yet, so
	// nothing migrates on the leave.
	var left membersResponse
	if code := post(t, a.ts.URL+"/v1/cluster/members", memberChange{Action: "leave", ID: joiner.id}, &left); code != http.StatusOK {
		t.Fatalf("leave: status %d", code)
	}
	if len(left.Members) != 2 || len(left.Migrated) != 0 {
		t.Fatalf("leave response %+v", left)
	}

	// A session that ring {0,1} places on node-0 but the full ring places on
	// the joiner: resident here now, must ship the moment node-2 joins.
	full := cluster.NewRing([]string{a.id, b.id, joiner.id})
	narrow := a.srv.clusterNode.Ring()
	var name string
	for i := 0; i < 100000; i++ {
		cand := fmt.Sprintf("churn-sess-%d", i)
		if narrow.Owner("session|"+cand) == a.id && full.Owner("session|"+cand) == joiner.id {
			name = cand
			break
		}
	}
	if name == "" {
		t.Fatal("no session name with the needed placement")
	}
	first := planSession(t, a.ts.URL, name, 6)

	var joined membersResponse
	if code := post(t, a.ts.URL+"/v1/cluster/members",
		memberChange{Action: "join", ID: joiner.id, URL: joiner.ts.URL}, &joined); code != http.StatusOK {
		t.Fatalf("join: status %d", code)
	}
	if len(joined.Members) != 3 {
		t.Fatalf("join members %v", joined.Members)
	}
	if len(joined.Failed) != 0 {
		t.Fatalf("join migrations failed: %+v", joined.Failed)
	}
	found := false
	for _, m := range joined.Migrated {
		if m == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("session %q not migrated on join (migrated=%v)", name, joined.Migrated)
	}
	if !joiner.srv.pool.contains(name) {
		t.Fatal("joiner does not hold the migrated session")
	}

	// The joiner serves the next batch on the continued timeline, and node-0
	// redirects to it.
	next := planSession(t, joiner.ts.URL, name, 6)
	if next.StartCycle <= first.StartCycle {
		t.Fatalf("timeline did not continue: first start=%d next start=%d", first.StartCycle, next.StartCycle)
	}
	via := planSession(t, a.ts.URL, name, 6)
	if via.StartCycle <= next.StartCycle {
		t.Fatalf("redirected batch start=%d, want after %d", via.StartCycle, next.StartCycle)
	}

	// Unknown actions and unknown peers answer typed statuses.
	if code := post(t, a.ts.URL+"/v1/cluster/members", memberChange{Action: "shrug", ID: "x"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad action: status %d, want 400", code)
	}
	if code := post(t, a.ts.URL+"/v1/cluster/members", memberChange{Action: "leave", ID: "ghost"}, nil); code != http.StatusNotFound {
		t.Fatalf("leave unknown: status %d, want 404", code)
	}
}

// TestArtifactReplicationAndReadRepair: a published plan lands on the whole
// replica set; after the owner loses its disk copy, a follower's fetch
// ladder serves from a successor — no rebuild — and repairs the owner.
func TestArtifactReplicationAndReadRepair(t *testing.T) {
	nodes := newTestCluster(t, 3)
	req := PlanRequest{Ratio: "1:2:5:8", Demand: 16}
	if code := post(t, nodes[0].ts.URL+"/v1/plan", req, nil); code != http.StatusOK {
		t.Fatalf("plan: status %d", code)
	}
	waitPublishes(nodes)

	spec, err := parsePlanRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := nodes[0].srv.newEngine(spec)
	if err != nil {
		t.Fatal(err)
	}
	addr := artifact.AddressFor(eng.PlanKey(spec.demand))

	// R=2 over 3 nodes: every node holds the artifact.
	for _, nd := range nodes {
		if _, ok := nd.store.Get(addr); !ok {
			t.Fatalf("%s missing replica of %s", nd.id, addr)
		}
	}

	// Simulate the owner losing its disk tier (and its LRU).
	owner := nodes[0].srv.clusterNode.Owner(addr)
	var ownerNode, follower *clusterNode
	for _, nd := range nodes {
		if nd.id == owner {
			ownerNode = nd
		} else if follower == nil {
			follower = nd
		}
	}
	if err := os.Remove(filepath.Join(ownerNode.store.Dir(), addr+".dmfbart")); err != nil {
		t.Fatal(err)
	}
	ownerNode.cache.Purge()

	// A cold follower (cache and disk emptied) must still serve via the
	// successor rung of the ladder, without a rebuild anywhere in the fleet.
	follower.cache.Purge()
	os.Remove(filepath.Join(follower.store.Dir(), addr+".dmfbart"))
	builds := totalBuilds(nodes)
	if code := post(t, follower.ts.URL+"/v1/plan", req, nil); code != http.StatusOK {
		t.Fatalf("follower plan after owner disk loss: status %d", code)
	}
	if got := totalBuilds(nodes); got != builds {
		t.Fatalf("disk loss caused %d rebuilds", got-builds)
	}
	waitPublishes(nodes)
	// Read-repair refilled the owner's disk tier.
	if _, ok := ownerNode.store.Get(addr); !ok {
		t.Fatal("owner disk tier not read-repaired")
	}
}

// TestArtifactBuildRetryAfterMatchesConfig pins the satellite bugfix: the
// artifact-build 429 carries the configured Retry-After, not a hardcoded 1.
func TestArtifactBuildRetryAfterMatchesConfig(t *testing.T) {
	s, ts := newTestServer(t, Config{RetryAfter: 7 * time.Second, MaxInFlight: 1, MaxQueue: 1})

	// Occupy the only admission slot directly, then park one waiter in the
	// queue so the next request is refused. Admission precedes body decode,
	// so a trivial body exercises the rejection path fine.
	s.slots <- struct{}{}
	defer func() { <-s.slots }()
	var wg sync.WaitGroup
	wg.Add(1)
	queuedCtx, cancelQueued := context.WithCancel(context.Background())
	go func() {
		defer wg.Done()
		req, _ := http.NewRequestWithContext(queuedCtx, http.MethodPost,
			ts.URL+"/v1/artifact/build", bytes.NewReader([]byte(`{}`)))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.waiting.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never registered")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/v1/artifact/build", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want %q (the configured value)", got, "7")
	}
	cancelQueued()
	wg.Wait()
}

// TestFollowerTimeoutDoesNotPoisonFlight pins the satellite check: a flight
// follower abandoning on its own deadline leaves the entry keyed by the
// leader, the leader's completion clears it, and the next caller runs fresh.
func TestFollowerTimeoutDoesNotPoisonFlight(t *testing.T) {
	var g flightGroup
	block := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		v, err, shared := g.do(context.Background(), specKey{endpoint: "k"}, func() (any, error) {
			<-block
			return "leader", nil
		})
		if v != "leader" || err != nil || shared {
			t.Errorf("leader got %v, %v, shared=%v", v, err, shared)
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		g.mu.Lock()
		_, inFlight := g.m[specKey{endpoint: "k"}]
		g.mu.Unlock()
		if inFlight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader flight never registered")
		}
		time.Sleep(time.Millisecond)
	}

	// A follower with an expired context abandons the wait, typed.
	ctx, cancelFollower := context.WithCancel(context.Background())
	cancelFollower()
	if _, err, shared := g.do(ctx, specKey{endpoint: "k"}, func() (any, error) { return "follower", nil }); err == nil || !shared {
		t.Fatalf("expired follower: err=%v shared=%v, want typed error from a shared flight", err, shared)
	}

	close(block)
	<-leaderDone

	// The abandoned wait did not poison the key: a later caller runs fresh.
	v, err, shared := g.do(context.Background(), specKey{endpoint: "k"}, func() (any, error) { return "fresh", nil })
	if v != "fresh" || err != nil || shared {
		t.Fatalf("post-abandon flight got %v, %v, shared=%v, want a fresh run", v, err, shared)
	}
}

// TestSessionOwnerHintSingleNode pins the satellite check: without a cluster
// the session_owner hint is empty — not this node's ID, and no panic.
func TestSessionOwnerHintSingleNode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp PlanResponse
	if code := post(t, ts.URL+"/v1/plan", PlanRequest{Ratio: "1:2:5:8", Demand: 6, Session: "solo"}, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.SessionOwner != "" {
		t.Fatalf("single-node session_owner = %q, want empty", resp.SessionOwner)
	}
	var stream StreamResponse
	if code := post(t, ts.URL+"/v1/stream", PlanRequest{Ratio: "1:2:5:8", Demand: 6, Session: "solo"}, &stream); code != http.StatusOK {
		t.Fatalf("stream status %d", code)
	}
	if stream.SessionOwner != "" {
		t.Fatalf("single-node stream session_owner = %q, want empty", stream.SessionOwner)
	}
}

// adoptStatus posts a raw snapshot to a node's adopt endpoint and returns
// the status code.
func adoptStatus(t *testing.T, baseURL, session string, body []byte) int {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/session/"+session+"/adopt", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// mustFrames encodes records as a snapshot.
func mustFrames(t testing.TB, recs ...wal.Record) []byte {
	t.Helper()
	frames, err := wal.EncodeFrames(recs)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// withUnknownField returns snapshot with its last record naming a field no
// record has, resealed: every frame is intact and checksummed.
func withUnknownField(t testing.TB, snapshot []byte) []byte {
	t.Helper()
	const magicLen, hdr = 8, 8
	last := magicLen
	for off := magicLen; off < len(snapshot); off += hdr + int(binary.LittleEndian.Uint32(snapshot[off:])) {
		last = off
	}
	payload := snapshot[last+hdr:]
	if len(payload) == 0 || payload[len(payload)-1] != '}' {
		t.Fatalf("last frame payload %q is not a JSON object", payload)
	}
	payload = append(bytes.Clone(payload[:len(payload)-1]), `,"future":1}`...)
	out := binary.LittleEndian.AppendUint32(bytes.Clone(snapshot[:last]), uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(out, payload...)
}

// adoptTableSnapshots returns a valid one-batch snapshot of session name and
// one invalid snapshot per way adopt refuses one. start/emitted are the true
// batch-1 values of a 1:2:5:8 demand-6 session.
func adoptTableSnapshots(t testing.TB, name string, start, emitted int) (valid []byte, rejected map[string][]byte) {
	t.Helper()
	ws := &wal.Spec{Ratio: "1:2:5:8", Algorithm: "MM", Scheduler: "MMS"}
	const fp = "1:2:5:8|MM|MMS|m0|q0"
	open := wal.Record{Kind: wal.KindSessionOpen, Session: name, Fingerprint: fp, Spec: ws}
	done := func(batch, start int) wal.Record {
		return wal.Record{Kind: wal.KindBatchDone, Session: name, Batch: batch, Demand: 6, StartCycle: start, Emitted: emitted}
	}
	valid = mustFrames(t, open, done(1, start))
	corrupt := bytes.Clone(valid)
	corrupt[len(corrupt)/2] ^= 0x20
	other := done(1, start)
	other.Session = "someone-else"
	badSpec := open
	badSpec.Spec = &wal.Spec{Ratio: "1:2"}
	rejected = map[string][]byte{
		"empty":             mustFrames(t),
		"names another":     mustFrames(t, open, other),
		"starts with batch": mustFrames(t, done(1, start)),
		"plan-key record":   mustFrames(t, open, done(1, start), wal.Record{Kind: wal.KindPlanKey, Spec: ws, Demand: 4}),
		"ordinal gap":       mustFrames(t, open, done(2, start)),
		"eviction":          mustFrames(t, open, done(1, start), wal.Record{Kind: wal.KindSessionEvict, Session: name}),
		"corrupt frames":    corrupt,
		"replay divergence": mustFrames(t, open, done(1, start+999)),
		"invalid spec":      mustFrames(t, badSpec),
		"unknown field":     withUnknownField(t, valid),
	}
	return valid, rejected
}

// TestAdoptRejectionTable pins every way adopt refuses a snapshot: each is
// a 422 that leaves nothing resident. It also pins the answers that are not
// refusals: re-adopting the same session is an idempotent 200 and a resident
// session with another fingerprint is a 409.
func TestAdoptRejectionTable(t *testing.T) {
	nodes := newTestCluster(t, 2)
	target := nodes[1]
	_, ctrl := newTestServer(t, Config{})
	seed := planSession(t, ctrl.URL, "seed", 6)

	const name = "table"
	valid, rejected := adoptTableSnapshots(t, name, seed.StartCycle, seed.Emitted)
	for label, body := range rejected {
		t.Run(label, func(t *testing.T) {
			if code := adoptStatus(t, target.ts.URL, name, body); code != http.StatusUnprocessableEntity {
				t.Fatalf("status %d, want 422", code)
			}
			if target.srv.pool.len() != 0 {
				t.Fatal("refused adopt left a session resident")
			}
		})
	}

	if code := adoptStatus(t, target.ts.URL, name, valid); code != http.StatusOK {
		t.Fatalf("valid adopt: status %d", code)
	}
	if code := adoptStatus(t, target.ts.URL, name, valid); code != http.StatusOK {
		t.Fatalf("same re-adopt: status %d, want idempotent 200", code)
	}
	conflict := mustFrames(t, wal.Record{
		Kind: wal.KindSessionOpen, Session: name, Fingerprint: "1:2:5:8|MM|MMS|m2|q0",
		Spec: &wal.Spec{Ratio: "1:2:5:8", Algorithm: "MM", Scheduler: "MMS", Mixers: 2},
	})
	if code := adoptStatus(t, target.ts.URL, name, conflict); code != http.StatusConflict {
		t.Fatalf("conflicting re-adopt: status %d, want 409", code)
	}
	if got := target.srv.pool.len(); got != 1 {
		t.Fatalf("%d sessions resident after the table, want 1", got)
	}
}

// TestAdoptedSessionPlansThroughNodeCache: an adopted session plans through
// its node's Config.PlanCache — the replay and every later batch — and never
// through the process-wide plancache.Default().
func TestAdoptedSessionPlansThroughNodeCache(t *testing.T) {
	nodes := newTestCluster(t, 2)
	src, dst := nodes[0], nodes[1]
	name := sessionOwnedBy(t, src.srv.clusterNode.Ring(), src.id)
	for _, d := range []int{6, 4} {
		planSession(t, src.ts.URL, name, d)
	}

	before, dstBefore := plancache.Default().Stats(), dst.cache.Stats()
	if code := post(t, src.ts.URL+"/v1/session/"+name+"/migrate?target="+dst.id, struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("migrate: status %d", code)
	}
	afterAdopt := dst.cache.Stats()
	planSession(t, dst.ts.URL, name, 8)
	after, dstAfter := plancache.Default().Stats(), dst.cache.Stats()

	if afterAdopt.Lookups == dstBefore.Lookups {
		t.Error("the adopt replay did not plan through the adopter's cache")
	}
	if dstAfter.Lookups == afterAdopt.Lookups {
		t.Error("the post-adopt batch did not plan through the adopter's cache")
	}
	if after.Lookups != before.Lookups || after.Builds != before.Builds {
		t.Errorf("plancache.Default() moved: lookups %d -> %d, builds %d -> %d",
			before.Lookups, after.Lookups, before.Builds, after.Builds)
	}
}
