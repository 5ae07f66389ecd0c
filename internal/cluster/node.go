package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// Typed cluster errors.
var (
	// ErrNotFound reports a peer that answered 404 — alive, but without the
	// requested artifact.
	ErrNotFound = errors.New("cluster: artifact not found on peer")
	// ErrPeerDown reports a peer that cannot be reached right now: its
	// circuit breaker is open, or the request failed at transport level.
	ErrPeerDown = errors.New("cluster: peer unavailable")
	// ErrUnknownPeer reports an owner ID outside the configured membership.
	ErrUnknownPeer = errors.New("cluster: unknown peer")
	// ErrNotMember reports a membership change naming an ID outside the
	// ring. It wraps ErrUnknownPeer.
	ErrNotMember = fmt.Errorf("%w: not a member", ErrUnknownPeer)
	// ErrBadPeer reports a malformed peer or membership change: an empty or
	// duplicate ID, a URL that is not an absolute http(s) base URL, or this
	// node itself.
	ErrBadPeer = errors.New("cluster: bad peer")
)

// ReplicaHeader marks an artifact PUT as originating from the replication
// protocol (Push) rather than a client: the receiver stores the verified
// bytes without fanning out to its own successors, which is what keeps
// owner→successor replication from cascading forever.
const ReplicaHeader = "X-Dmfbd-Replica"

// Peer names one remote member: its node ID and HTTP base URL.
type Peer struct {
	ID  string
	URL string
}

// ParsePeers parses the -peers flag form "id=http://host:port,id2=...".
// Every entry must pass checkPeer, and IDs must be unique.
func ParsePeers(s string) ([]Peer, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var peers []Peer
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, rawURL, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("%w: %q (want id=url)", ErrBadPeer, part)
		}
		p, err := checkPeer(Peer{ID: id, URL: rawURL})
		if err != nil {
			return nil, err
		}
		if seen[p.ID] {
			return nil, fmt.Errorf("%w: duplicate peer ID %q", ErrBadPeer, p.ID)
		}
		seen[p.ID] = true
		peers = append(peers, p)
	}
	return peers, nil
}

// checkPeer is the one rule for a peer entry, shared by ParsePeers, NewNode
// and AddPeer (and so the members endpoint): a non-empty ID and an absolute
// http(s) base URL without query or fragment. It returns the peer with its
// URL's trailing slashes trimmed.
func checkPeer(p Peer) (Peer, error) {
	p.URL = strings.TrimRight(p.URL, "/")
	u, err := url.Parse(p.URL)
	switch {
	case p.ID == "":
		return p, fmt.Errorf("%w: %+v needs an ID", ErrBadPeer, p)
	case err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" ||
		u.RawQuery != "" || u.Fragment != "":
		return p, fmt.Errorf("%w: %q needs an absolute http(s) URL, got %q", ErrBadPeer, p.ID, p.URL)
	}
	return p, nil
}

// Config describes one node's view of the cluster.
type Config struct {
	// Self is this node's ID; it joins the ring alongside Peers.
	Self string
	// Peers are the other members (Self must not appear among them).
	Peers []Peer
	// Timeout bounds each peer request (default 2s).
	Timeout time.Duration
	// BreakerThreshold / BreakerCooldown shape the per-peer circuit breaker
	// (defaults 3 failures / 250ms with capped doubling, matching the chip
	// breakers).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Transport overrides the HTTP transport (tests inject in-process
	// listeners; nil uses http.DefaultTransport).
	Transport http.RoundTripper
}

// peerState is one remote member plus its breaker.
type peerState struct {
	url     string
	breaker *fleet.Breaker
}

// Node is one member's handle on the cluster: the shared ring plus breaker-
// guarded clients for every peer. Safe for concurrent use: the ring is an
// immutable value swapped atomically on membership change, the peer map is
// guarded by mu, breakers self-lock and http.Client is concurrency-safe.
type Node struct {
	self   string
	ring   atomic.Pointer[Ring]
	client *http.Client

	// breaker shape inherited by peers added at runtime.
	breakerThreshold int
	breakerCooldown  time.Duration

	mu    sync.RWMutex
	peers map[string]*peerState

	hbMu   sync.Mutex
	hbStop chan struct{}
}

// NewNode builds the node. A nil *Node is a valid single-node cluster
// (every key is local), so call sites can disable clustering by passing nil.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("%w: node needs a non-empty self ID", ErrBadPeer)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	n := &Node{
		self:             cfg.Self,
		breakerThreshold: cfg.BreakerThreshold,
		breakerCooldown:  cfg.BreakerCooldown,
		peers:            make(map[string]*peerState, len(cfg.Peers)),
		client: &http.Client{
			Timeout:   cfg.Timeout,
			Transport: cfg.Transport,
		},
	}
	members := []string{cfg.Self}
	for _, p := range cfg.Peers {
		p, err := checkPeer(p)
		if err != nil {
			return nil, err
		}
		if p.ID == cfg.Self {
			return nil, fmt.Errorf("%w: peer list contains self (%q)", ErrBadPeer, p.ID)
		}
		if _, dup := n.peers[p.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate peer ID %q", ErrBadPeer, p.ID)
		}
		n.peers[p.ID] = &peerState{
			url:     p.URL,
			breaker: fleet.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, 0),
		}
		members = append(members, p.ID)
	}
	n.ring.Store(NewRing(members))
	return n, nil
}

// Ring returns the node's current view of the consistent-hash ring (nil for
// a nil node). The ring is immutable; membership changes swap in a new one.
func (n *Node) Ring() *Ring {
	if n == nil {
		return nil
	}
	return n.ring.Load()
}

// AddPeer joins a member to the ring at runtime: the peer gains a breaker-
// guarded client and the ring is atomically replaced by its With-derived
// successor, so concurrent lookups see either the old or the new placement,
// never a torn one. Rejoining an existing peer ID only updates its URL.
func (n *Node) AddPeer(p Peer) error {
	if n == nil {
		return errors.New("cluster: no cluster configured")
	}
	p, err := checkPeer(p)
	if err != nil {
		return err
	}
	if p.ID == n.self {
		return fmt.Errorf("%w: cannot join self (%q)", ErrBadPeer, p.ID)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if ps, ok := n.peers[p.ID]; ok {
		ps.url = p.URL
		return nil
	}
	n.peers[p.ID] = &peerState{
		url:     p.URL,
		breaker: fleet.NewBreaker(n.breakerThreshold, n.breakerCooldown, 0),
	}
	n.ring.Store(n.ring.Load().With(p.ID))
	obs.Inc("cluster.members_joined")
	return nil
}

// RemovePeer removes a member from the ring at runtime (atomic ring swap,
// peer client dropped). Removing an unknown peer is ErrNotMember; the node
// can never remove itself (ErrBadPeer).
func (n *Node) RemovePeer(id string) error {
	if n == nil {
		return errors.New("cluster: no cluster configured")
	}
	if id == n.self {
		return fmt.Errorf("%w: cannot remove self (%q)", ErrBadPeer, id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.peers[id]; !ok {
		return fmt.Errorf("%w: %q", ErrNotMember, id)
	}
	delete(n.peers, id)
	n.ring.Store(n.ring.Load().Without(id))
	obs.Inc("cluster.members_left")
	return nil
}

// PeerURL resolves a peer's base URL ("" when unknown). Routing layers use
// it to build 307 redirect targets for migrated sessions.
func (n *Node) PeerURL(id string) string {
	if n == nil {
		return ""
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if p, ok := n.peers[id]; ok {
		return p.url
	}
	return ""
}

// Self returns this node's ID ("" for a nil node).
func (n *Node) Self() string {
	if n == nil {
		return ""
	}
	return n.self
}

// Size returns the cluster member count (1 for a nil node: just us).
func (n *Node) Size() int {
	if n == nil {
		return 1
	}
	return n.ring.Load().Size()
}

// Owner maps a key (artifact address, session key) to its owning member ID.
// A nil node owns everything itself.
func (n *Node) Owner(key string) string {
	if n == nil {
		return ""
	}
	return n.ring.Load().Owner(key)
}

// Owns reports whether this node owns the key. Nil nodes own everything.
func (n *Node) Owns(key string) bool {
	if n == nil {
		return true
	}
	return n.ring.Load().Owner(key) == n.self
}

// Successors returns the key's replica set: up to count distinct members
// clockwise from the key, owner first. A nil node returns nil (everything is
// local anyway).
func (n *Node) Successors(key string, count int) []string {
	if n == nil {
		return nil
	}
	return n.ring.Load().Successors(key, count)
}

// PeerStates snapshots every peer's breaker state, keyed by peer ID, for
// health reporting.
func (n *Node) PeerStates() map[string]string {
	if n == nil {
		return nil
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	states := make(map[string]string, len(n.peers))
	for id, p := range n.peers {
		states[id] = p.breaker.State()
	}
	return states
}

// PeerIDs returns the peer IDs, sorted.
func (n *Node) PeerIDs() []string {
	if n == nil {
		return nil
	}
	n.mu.RLock()
	ids := make([]string, 0, len(n.peers))
	for id := range n.peers {
		ids = append(ids, id)
	}
	n.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// SuspectPeers returns the peers whose breaker is not closed — peers that
// failed recently and have not yet answered a half-open probe. The heartbeat
// keeps this fresh without any request traffic.
func (n *Node) SuspectPeers() []string {
	if n == nil {
		return nil
	}
	var out []string
	for id, state := range n.PeerStates() {
		if state != "closed" {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Ping probes a peer's liveness endpoint through its circuit breaker: a
// reachable peer closes the breaker (Success), an unreachable one charges it
// exactly like a failed artifact round trip. An open breaker admits one
// probe per cooldown (the fleet breaker's half-open contract), so a dead
// peer costs one connection attempt per interval, not one per request.
func (n *Node) Ping(ctx context.Context, peerID string) error {
	_, err := n.roundTrip(ctx, peerID, http.MethodGet, "/healthz/live", "", nil, nil, "cluster.ping")
	return err
}

// StartHeartbeat probes every peer each interval until StopHeartbeat (or a
// second StartHeartbeat) is called. It replaces "the static -peers list is
// assumed alive forever": breaker state — surfaced by PeerStates,
// SuspectPeers and /healthz/ready — converges to the truth within one
// interval even when no request traffic flows toward a peer.
func (n *Node) StartHeartbeat(interval time.Duration) {
	if n == nil || interval <= 0 {
		return
	}
	n.hbMu.Lock()
	defer n.hbMu.Unlock()
	if n.hbStop != nil {
		close(n.hbStop)
	}
	stop := make(chan struct{})
	n.hbStop = stop
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			for _, id := range n.PeerIDs() {
				ctx, cancel := context.WithTimeout(context.Background(), interval)
				n.Ping(ctx, id)
				cancel()
			}
		}
	}()
}

// StopHeartbeat stops the heartbeat loop started by StartHeartbeat.
func (n *Node) StopHeartbeat() {
	if n == nil {
		return
	}
	n.hbMu.Lock()
	defer n.hbMu.Unlock()
	if n.hbStop != nil {
		close(n.hbStop)
		n.hbStop = nil
	}
}

// Fetch retrieves the artifact bytes stored under addr on the named peer.
// The caller owns verification: peer bytes are untrusted until
// artifact.DecodeVerified accepts them.
func (n *Node) Fetch(ctx context.Context, peerID, addr string) ([]byte, error) {
	return n.roundTrip(ctx, peerID, http.MethodGet, "/v1/artifact/"+addr, "", nil, nil, "cluster.fetch")
}

// Push stores artifact bytes under addr on the named peer (best-effort
// replication within the key's replica set; the peer verifies before
// storing). The replica header tells the receiver this copy already comes
// from the replication protocol, so it stores without fanning out again —
// otherwise owner→successor pushes would cascade.
func (n *Node) Push(ctx context.Context, peerID, addr string, data []byte) error {
	_, err := n.roundTrip(ctx, peerID, http.MethodPut, "/v1/artifact/"+addr, "application/octet-stream", data, map[string]string{ReplicaHeader: "1"}, "cluster.push")
	return err
}

// BuildOn delegates a plan build to the key's owner: the JSON plan request
// is POSTed to the owner's build endpoint, which coalesces concurrent
// builds of the same key through its in-process flight group and answers
// with the encoded artifact. This is the cross-node single-flight: every
// non-owner blocks here (bounded by the client timeout) instead of building
// locally, so a cold key costs the fleet one build, not one per node.
func (n *Node) BuildOn(ctx context.Context, peerID string, planReq []byte) ([]byte, error) {
	return n.roundTrip(ctx, peerID, http.MethodPost, "/v1/artifact/build", "application/json", planReq, nil, "cluster.build")
}

// Adopt ships a migrating session's WAL-frame snapshot to the named peer,
// which replays it onto a verified bit-identical timeline before answering
// 2xx. The source must not delete its copy until Adopt returns nil.
func (n *Node) Adopt(ctx context.Context, peerID, session string, frames []byte) error {
	_, err := n.roundTrip(ctx, peerID, http.MethodPost,
		"/v1/session/"+url.PathEscape(session)+"/adopt", "application/octet-stream", frames, nil, "cluster.adopt")
	return err
}

// roundTrip runs one breaker-guarded request against a peer. 2xx returns
// the body; 404 is ErrNotFound (the peer is alive — breaker success); other
// statuses and transport failures charge the breaker.
func (n *Node) roundTrip(ctx context.Context, peerID, method, path, contentType string, body []byte, hdr map[string]string, metric string) ([]byte, error) {
	if n == nil {
		return nil, fmt.Errorf("%w: no cluster configured", ErrUnknownPeer)
	}
	n.mu.RLock()
	p, ok := n.peers[peerID]
	var baseURL string
	if ok {
		baseURL = p.url
	}
	n.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPeer, peerID)
	}
	if !p.breaker.Allow() {
		obs.Inc(metric + ".breaker_rejected")
		return nil, fmt.Errorf("%w: %s breaker open", ErrPeerDown, peerID)
	}
	var reqBody io.Reader
	if body != nil {
		reqBody = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, baseURL+path, reqBody)
	if err != nil {
		p.breaker.Success() // caller bug, not peer health
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := n.client.Do(req)
	if err != nil {
		if p.breaker.Failure() {
			obs.Inc("cluster.breaker_opens")
		}
		obs.Inc(metric + ".errors")
		return nil, fmt.Errorf("%w: %s: %v", ErrPeerDown, peerID, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		if p.breaker.Failure() {
			obs.Inc("cluster.breaker_opens")
		}
		obs.Inc(metric + ".errors")
		return nil, fmt.Errorf("%w: %s: %v", ErrPeerDown, peerID, err)
	}
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		p.breaker.Success()
		obs.Inc(metric + ".ok")
		return data, nil
	case resp.StatusCode == http.StatusNotFound:
		p.breaker.Success() // alive, just cold
		obs.Inc(metric + ".not_found")
		return nil, fmt.Errorf("%w: %s", ErrNotFound, peerID)
	default:
		// 4xx/5xx both charge the breaker: a peer rejecting our artifacts
		// or failing builds is not a peer worth hammering.
		if p.breaker.Failure() {
			obs.Inc("cluster.breaker_opens")
		}
		obs.Inc(metric + ".errors")
		return nil, fmt.Errorf("%w: %s answered %d: %s", ErrPeerDown, peerID, resp.StatusCode, strings.TrimSpace(string(data)))
	}
}
