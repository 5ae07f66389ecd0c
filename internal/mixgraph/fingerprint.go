package mixgraph

// Fingerprint returns a structural FNV-1a hash of the graph: node kinds,
// fluids and child wiring, in topological order. Graphs built by the
// deterministic algorithms (MM, RMA, MTCS, RSM) over the same ratio always
// collide intentionally; structurally different graphs virtually never do.
// The structure plus leaf fluids fully determine every CF vector in the
// graph (each mix vector is the average of its children), which is why a
// node stores none (Graph.Vectors derives them) and why the fingerprint is
// sound as a cache-key component without reading a vector.
//
// Graphs are immutable after Build, so the hash is computed once and
// memoised; the hot path (plan-cache key construction on every serving
// request) is a single atomic load.
func (g *Graph) Fingerprint() uint64 {
	if g.fpDone.Load() {
		return g.fp.Load()
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	mix(uint64(len(g.Nodes)))
	for _, n := range g.Nodes {
		if n.IsLeaf() {
			mix(1)
			mix(uint64(n.Fluid))
			continue
		}
		mix(2)
		mix(uint64(n.Children[0].ID))
		mix(uint64(n.Children[1].ID))
	}
	// Concurrent first callers compute the same deterministic value; the
	// value store precedes the flag store, so a reader seeing fpDone always
	// reads a complete hash.
	g.fp.Store(h)
	g.fpDone.Store(true)
	return h
}
