package server

import (
	"container/list"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// errSessionConflict reports a request that names an existing session but
// carries a different engine configuration; the caller must either match the
// session's configuration or pick a new session name. Mapped to HTTP 409.
var errSessionConflict = errors.New("server: session exists with a different configuration")

const sessionShards = 8

// sessionPool is a sharded LRU pool of named, long-lived engines. Each
// session owns one core.Engine (itself internally synchronized), so repeated
// requests against a session continue one droplet timeline — the paper's
// demand-driven operation. Sharding by session name keeps pool bookkeeping
// off the planning hot path: two requests on different sessions only contend
// if they hash to the same shard, and even then only for the few list
// operations, never for the plan itself.
//
// Sessions are pinned while a request uses them: eviction skips pinned
// sessions (temporarily overshooting the shard capacity if every candidate
// is pinned), so an LRU eviction can never race an in-flight request into a
// forked timeline — the failure mode being a fresh engine restarting the
// session at cycle 1 while the old engine still extends the evicted one.
type sessionPool struct {
	perShard int // LRU capacity per shard
	shards   [sessionShards]sessionShard

	// onEvict, when set, observes every eviction (under the shard lock);
	// the server uses it to journal evictions to the WAL.
	onEvict func(name string)
}

type sessionShard struct {
	mu    sync.Mutex
	lru   *list.List // front = most recently used, values are *session
	index map[string]*list.Element
}

// batchSummary is one completed batch of a session, retained for boot-time
// WAL compaction (the demands replay the timeline; start/emitted verify it).
type batchSummary struct {
	demand     int
	startCycle int
	emitted    int
}

type session struct {
	name   string
	engine *core.Engine

	// spec is the validated engine configuration. Its fingerprint pins the
	// session against silent config drift, and compaction and migration
	// re-emit the session's records from it.
	spec *planSpec

	// pins counts in-flight requests holding the session; guarded by the
	// shard mutex. A pinned session is never evicted.
	pins int

	// reqMu serializes the WAL bracket (accept → plan → done/fail) of this
	// session so batch ordinals land in the log contiguously. It also guards
	// batches, history and fenced.
	reqMu   sync.Mutex
	batches int            // batch ordinals consumed (including failed plans)
	history []batchSummary // completed batches, for compaction and migration
	// fenced refuses new batches (409) while the session migrates to another
	// node: the snapshot shipped to the new owner must be the last word on
	// this timeline, so no write may land after it is taken.
	fenced bool
}

// newSessionPool builds a pool holding about `capacity` sessions across all
// shards (minimum one per shard).
func newSessionPool(capacity int) *sessionPool {
	per := (capacity + sessionShards - 1) / sessionShards
	if per < 1 {
		per = 1
	}
	p := &sessionPool{perShard: per}
	for i := range p.shards {
		p.shards[i].lru = list.New()
		p.shards[i].index = map[string]*list.Element{}
	}
	return p
}

func (p *sessionPool) shard(name string) *sessionShard {
	h := fnv.New32a()
	h.Write([]byte(name))
	return &p.shards[h.Sum32()%sessionShards]
}

// acquire returns the named session pinned against eviction, building its
// engine with build on first use. onInsert (may be nil) runs under the shard
// lock the moment a new session enters the pool — before any request on it
// can proceed — which is how the WAL's session-open record is guaranteed to
// precede the session's first batch record. The returned release must be
// called exactly once when the request is done with the session.
func (p *sessionPool) acquire(name string, spec *planSpec, build func() (*core.Engine, error), onInsert func()) (*session, func(), error) {
	s := p.shard(name)
	// pin takes the resident session el; the caller holds the shard lock.
	pin := func(el *list.Element) (*session, func(), error) {
		sess := el.Value.(*session)
		if sess.spec.fingerprint() != spec.fingerprint() {
			return nil, nil, fmt.Errorf("%w: session %q", errSessionConflict, name)
		}
		s.lru.MoveToFront(el)
		sess.pins++
		return sess, p.releaseFunc(s, sess), nil
	}
	s.mu.Lock()
	if el, ok := s.index[name]; ok {
		defer s.mu.Unlock()
		return pin(el)
	}
	s.mu.Unlock()

	// Build outside the shard lock: engine construction parses the ratio
	// and builds the base mixing graph, which has no business serializing
	// unrelated sessions. Two racing first-requests for the same name both
	// build; the loser's engine is dropped (engines are pure memory).
	eng, err := build()
	if err != nil {
		return nil, nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.index[name]; ok {
		return pin(el)
	}
	sess := &session{name: name, engine: eng, spec: spec, pins: 1}
	if onInsert != nil {
		onInsert()
	}
	el := s.lru.PushFront(sess)
	s.index[name] = el
	obs.Inc("server.sessions.created")
	p.evictLocked(s)
	return sess, p.releaseFunc(s, sess), nil
}

// releaseFunc unpins the session and retries any eviction the pin deferred.
func (p *sessionPool) releaseFunc(s *sessionShard, sess *session) func() {
	return func() {
		s.mu.Lock()
		sess.pins--
		p.evictLocked(s)
		s.mu.Unlock()
	}
}

// evictLocked trims the shard to capacity, skipping pinned sessions. When
// every over-capacity candidate is pinned the shard temporarily overshoots;
// the releasing request retries the eviction.
func (p *sessionPool) evictLocked(s *sessionShard) {
	for el := s.lru.Back(); el != nil && s.lru.Len() > p.perShard; {
		sess := el.Value.(*session)
		prev := el.Prev()
		if sess.pins == 0 {
			s.lru.Remove(el)
			delete(s.index, sess.name)
			obs.Inc("server.sessions.evicted")
			if p.onEvict != nil {
				p.onEvict(sess.name)
			}
		} else {
			obs.Inc("server.sessions.evictions_deferred")
		}
		el = prev
	}
}

// peek returns the named session pinned against eviction without building
// anything on a miss. Migration uses it to fence and snapshot a resident
// session; the returned release must be called exactly once.
func (p *sessionPool) peek(name string) (*session, func(), bool) {
	s := p.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.index[name]
	if !ok {
		return nil, nil, false
	}
	sess := el.Value.(*session)
	sess.pins++
	return sess, p.releaseFunc(s, sess), true
}

// contains reports whether the named session is resident, without touching
// LRU order or pins.
func (p *sessionPool) contains(name string) bool {
	s := p.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[name]
	return ok
}

// remove deletes the named session outright (onEvict fires, as for an LRU
// eviction), pins notwithstanding: the migration path only removes after the
// new owner acked the snapshot, and any request still pinning the session is
// already fenced off its timeline. False when the session is not resident.
func (p *sessionPool) remove(name string) bool {
	s := p.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.index[name]
	if !ok {
		return false
	}
	s.lru.Remove(el)
	delete(s.index, name)
	if p.onEvict != nil {
		p.onEvict(name)
	}
	return true
}

// restore inserts a replayed session (recovered or adopted) into the pool
// under the canonical fingerprint of its spec.
func (p *sessionPool) restore(name string, spec *planSpec, eng *core.Engine, history []batchSummary) {
	s := p.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[name]; ok {
		return
	}
	sess := &session{
		name: name, engine: eng, spec: spec,
		batches: len(history), history: history,
	}
	s.index[name] = s.lru.PushFront(sess)
	obs.Inc("server.sessions.restored")
	p.evictLocked(s)
}

// snapshot returns every live session, most recently used first within each
// shard. Used by boot-time WAL compaction.
func (p *sessionPool) snapshot() []*session {
	var out []*session
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; el = el.Next() {
			out = append(out, el.Value.(*session))
		}
		s.mu.Unlock()
	}
	return out
}

// len reports the number of live sessions across all shards.
func (p *sessionPool) len() int {
	n := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}
