package core

import (
	"container/list"
	"strings"
	"sync"

	"repro/internal/mixgraph"
	"repro/internal/ratio"
	"repro/internal/sched"
)

// Base-graph and Mlb memoisation. A stateless serving layer constructs a
// fresh Engine per request, and before this cache every New rebuilt the base
// mixing graph — and, for the paper's default mixer setting, the MM tree
// plus the whole Mlb mixer-count search — from scratch. Both are pure
// functions of (algorithm, target ratio), and built graphs are immutable,
// so they are shared process-wide behind bounded LRUs. This is what makes a
// warm plan request nearly allocation-free end to end: the remaining work
// is a cache-key build and a plan-cache hit.

// lru is a minimal mutex-guarded bounded LRU used for derived-immutable
// values. Concurrent misses may both compute; results are deterministic, so
// either insert is correct.
type lru[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

func (c *lru[V]) get(k string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

func (c *lru[V]) put(k string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*lruEntry[V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&lruEntry[V]{key: k, val: v})
	if c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*lruEntry[V]).key)
	}
}

func (c *lru[V]) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
}

// baseCacheCapacity bounds each cache. A serving process sees a small
// working set of (algorithm, ratio) pairs; a graph is a few kilobytes, so
// worst-case retention stays below a megabyte.
const baseCacheCapacity = 256

var (
	baseGraphs = newLRU[*mixgraph.Graph](baseCacheCapacity)
	mlbValues  = newLRU[int](baseCacheCapacity)
)

// baseKey identifies a built base graph: the algorithm, the ratio parts and
// the fluid names (the names ride on Graph.Target, so differently-named
// targets must not share a cached graph).
func baseKey(alg Algorithm, target ratio.Ratio) string {
	var b strings.Builder
	b.Grow(64)
	b.WriteString(alg.String())
	b.WriteByte('\x1f')
	b.WriteString(target.String())
	for i := 0; i < target.N(); i++ {
		b.WriteByte('\x1f')
		b.WriteString(target.Name(i))
	}
	return b.String()
}

// cachedBase returns the (immutable, shared) base mixing graph for the
// algorithm and target, building and caching it on first use.
func cachedBase(alg Algorithm, target ratio.Ratio) (*mixgraph.Graph, error) {
	key := baseKey(alg, target)
	if g, ok := baseGraphs.get(key); ok {
		return g, nil
	}
	g, err := alg.Build(target)
	if err != nil {
		return nil, err
	}
	baseGraphs.put(key, g)
	return g, nil
}

// PaperMixers returns Mlb of the target's MM tree — the mixer count the
// paper uses for every scheme on a ratio, and an Engine's default — memoised
// per ratio (names are irrelevant to the mixer search). It is the one
// derivation of that count: engines, multi-target plans, the experiments and
// the report all resolve it here.
func PaperMixers(target ratio.Ratio) (int, error) {
	key := target.String()
	if v, ok := mlbValues.get(key); ok {
		return v, nil
	}
	mm, err := cachedBase(MM, target)
	if err != nil {
		return 0, err
	}
	v := sched.Mlb(mm)
	mlbValues.put(key, v)
	return v, nil
}

// purgeBaseCaches empties both caches (tests only).
func purgeBaseCaches() {
	baseGraphs.purge()
	mlbValues.purge()
}
