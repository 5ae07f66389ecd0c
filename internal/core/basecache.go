package core

import (
	"strings"
	"sync"

	"repro/internal/lru"
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

// baseCacheCapacity bounds each cache. A serving process sees a small
// working set of (algorithm, ratio) pairs; a graph is a few kilobytes, so
// worst-case retention stays below a megabyte.
const baseCacheCapacity = 256

// Concurrent misses may both compute; results are deterministic, so either
// insert is correct.
var (
	baseMu     sync.Mutex // guards baseGraphs and mlbValues
	baseGraphs = lru.New[string, *mixgraph.Graph](baseCacheCapacity)
	mlbValues  = lru.New[string, int](baseCacheCapacity)
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
	baseMu.Lock()
	g, ok := baseGraphs.Get(key)
	baseMu.Unlock()
	if ok {
		return g, nil
	}
	g, err := alg.Build(target)
	if err != nil {
		return nil, err
	}
	baseMu.Lock()
	baseGraphs.Add(key, g)
	baseMu.Unlock()
	return g, nil
}

// PaperMixers returns Mlb of the target's MM tree — the mixer count the
// paper uses for every scheme on a ratio, and an Engine's default — memoised
// per ratio (names are irrelevant to the mixer search). It is the one
// derivation of that count: engines, multi-target plans, the experiments and
// the report all resolve it here.
func PaperMixers(target ratio.Ratio) (int, error) {
	key := target.String()
	baseMu.Lock()
	v, ok := mlbValues.Get(key)
	baseMu.Unlock()
	if ok {
		return v, nil
	}
	mm, err := cachedBase(MM, target)
	if err != nil {
		return 0, err
	}
	v = sched.Mlb(mm)
	baseMu.Lock()
	mlbValues.Add(key, v)
	baseMu.Unlock()
	return v, nil
}

// purgeBaseCaches empties both caches (tests only).
func purgeBaseCaches() {
	baseMu.Lock()
	baseGraphs.Purge()
	mlbValues.Purge()
	baseMu.Unlock()
}
