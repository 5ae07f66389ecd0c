package core

import (
	"strconv"
	"sync"

	"repro/internal/lru"
	"repro/internal/minmix"
	"repro/internal/mixgraph"
	"repro/internal/ratio"
)

// Base-graph memoisation. A stateless serving layer constructs a fresh
// Engine per request, and before this cache every New rebuilt the base
// mixing graph from scratch. A graph is a pure function of (algorithm,
// target ratio) and immutable once built, so graphs are shared
// process-wide behind a bounded LRU. This is what makes a warm plan
// request nearly allocation-free end to end: the cache key of an unnamed
// target is two field reads, and what remains is a plan-cache hit.

// baseCacheCapacity bounds the cache. A serving process sees a small
// working set of (algorithm, ratio) pairs, and a graph is a few kilobytes,
// so the LRU itself holds under a megabyte. That is not a bound on graph
// memory: every cached plan pins its base graph (PackedForest.Base), so a
// graph the LRU evicts lives on as long as a plan-cache entry built on it.
const baseCacheCapacity = 256

// Concurrent misses may both build; results are deterministic, so either
// insert is correct.
var (
	baseMu     sync.Mutex // guards baseGraphs
	baseGraphs = lru.New[baseKey, *mixgraph.Graph](baseCacheCapacity)
)

// baseKey identifies a built base graph: the algorithm, the target's colon
// form and, for a named target, its fluid names (they ride on
// Graph.Target). Each name is written as its byte length, ':' and the
// name, so no two name lists share an encoding whatever bytes they hold.
type baseKey struct {
	alg           Algorithm
	target, names string
}

// cachedBase returns the (immutable, shared) base mixing graph for the
// algorithm and target, building and caching it on first use.
func cachedBase(alg Algorithm, target ratio.Ratio) (*mixgraph.Graph, error) {
	key := baseKey{alg: alg, target: target.String()}
	if target.Named() {
		var b []byte
		for _, n := range target.Names() {
			b = append(append(strconv.AppendInt(b, int64(len(n)), 10), ':'), n...)
		}
		key.names = string(b)
	}
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
// paper uses for every scheme on a ratio, and an Engine's default. It is the
// one derivation of that count: engines, multi-target plans, the
// experiments and the report all resolve it here. The count is a closed
// form over the ratio's bits (minmix.Mlb), so no MM tree is built, packed
// or scheduled for it and nothing needs memoising.
func PaperMixers(target ratio.Ratio) (int, error) {
	return minmix.Mlb(target)
}

// purgeBaseCaches empties the base-graph cache (tests only).
func purgeBaseCaches() {
	baseMu.Lock()
	baseGraphs.Purge()
	baseMu.Unlock()
}
