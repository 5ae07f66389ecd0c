// Package plancache memoises mixing plans, the §6 demand scans behind
// them and the total cycles error-aware selection scores candidates by, in
// one concurrency-safe object of three bounded LRU tables. A Cache owns all
// memoised planning state: Purge empties every table, and a nil *Cache
// memoises nothing.
//
// A plan is a pure function of (base graph, demand, mixer count, scheduling
// scheme): the forest construction and both schedulers are deterministic and
// read-only over their inputs, so a cached plan is exactly the plan a fresh
// build would produce. Keys therefore combine the base algorithm label, the
// target ratio with its fluid names, and a structural fingerprint of the
// base graph with the demand, mixer count and scheduler name; the
// fingerprint makes the key sound even for hand-built graphs whose
// (algorithm, ratio) pair is not unique.
//
// Every plan is one pointer-free slab — the packed forest and the slot
// table — plus its summary numbers; the pointer-linked Forest and Schedule
// are materialized from it once, on first demand (see Plan). A persistent
// engine's batches are slabs too, windows of its committed history. Plans
// are shared: callers must treat every reachable object — slab, forest,
// tasks, schedule slots, stats slices — as immutable.
package plancache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/forest"
	"repro/internal/lru"
	"repro/internal/mixgraph"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Key identifies one cached plan.
type Key struct {
	// Algo is the base algorithm label ("MM", "RMA", ...; may be empty for
	// hand-built graphs — Graph disambiguates).
	Algo string
	// Ratio is the target ratio in colon form.
	Ratio string
	// Names is the target's fluid names as ratio.Ratio.NamesKey renders
	// them, "" for the defaults x1, x2, ...: a plan pins the base graph it
	// was built on, whose target names what its renderings print, so two
	// targets differing only in names never share a plan. Canonical leaves
	// it out, as do artifact addresses; an artifact carries the names in
	// its target and Decode fills them in.
	Names string
	// Graph is the structural fingerprint of the base mixing graph.
	Graph uint64
	// Demand is the droplet demand D the plan serves.
	Demand int
	// Mixers is the on-chip mixer count Mc.
	Mixers int
	// Scheduler names the scheduling scheme ("MMS", "SRS").
	Scheduler string
	// Policy fingerprints the fault/recovery policy the plan was built
	// under. Pristine-chip plans use PristinePolicy (""); plans produced by
	// the cyberphysical runtime while recovering on a degraded chip carry a
	// non-empty policy string, so a recovered-degraded plan is never served
	// for a pristine-chip request (and vice versa).
	Policy string
}

// PristinePolicy is the Policy value of plans built for a fault-free,
// fully-provisioned chip.
const PristinePolicy = ""

// Canonical renders the key in a stable, unambiguous text form. It is the
// identity the distributed tier content-addresses plan artifacts by: every
// node rendering the same key produces the same string, so every node derives
// the same artifact address (see internal/artifact.AddressFor). The layout is
// versioned by the leading tag; changing it orphans — never corrupts — any
// artifact store written under the old layout.
func (k Key) Canonical() string {
	return fmt.Sprintf("plankey1|%s|%s|g%016x|d%d|m%d|%s|p%s",
		k.Algo, k.Ratio, k.Graph, k.Demand, k.Mixers, k.Scheduler, k.Policy)
}

// KeyFor builds the cache key for planning `demand` droplets of g's target
// on `mixers` mixers under the named scheduler and fault/recovery policy
// (PristinePolicy for the fault-free planning path).
// The graph memoises its fingerprint and the target carries its colon
// form and names key, so a warm KeyFor is an atomic load and zero
// allocations (the serving layer calls it on every plan request).
func KeyFor(g *mixgraph.Graph, demand, mixers int, scheduler, policy string) Key {
	return Key{
		Algo:      g.Algorithm,
		Ratio:     g.Target.String(),
		Names:     g.Target.NamesKey(),
		Graph:     g.Fingerprint(),
		Demand:    demand,
		Mixers:    mixers,
		Scheduler: scheduler,
		Policy:    policy,
	}
}

// ScanKey identifies one §6 demand scan. D′ is a pure function of the base
// graph's structure (fingerprint and target), the chip resources, the scan
// limit and the scheduler, so a memoised D′ is exactly what a fresh scan
// returns — the argument that makes cached plans sound, one step earlier.
// The totals table is keyed on it too, with the plan's demand as Limit.
type ScanKey struct {
	Graph     uint64
	Ratio     string
	Mixers    int
	Storage   int
	Limit     int
	Scheduler string
}

// Plan is one planning artefact: a single-pass plan's summary numbers and
// one pointer-free slab, the packed tasks and tree bounds and the kernel's
// slot table. The planner copies a slab out of its arenas (NewPacked), an
// artifact decoder reads one off the wire (FromSlab), a hand-built plan
// packs its forest into one (NewPlan), and a persistent engine wraps each
// batch's window of its committed history as one (NewWindow). The serving
// paths, the plan audit (audit.CheckPacked) and the artifact codec read
// only the summary fields, EmitCycles, Packed and Slots, so the slab is
// all a plan holds until a caller needs pointer forms — execution, export,
// rendering — and calls Forest or Schedule, which materialize both once,
// privately. The garbage collector never scans the slab's arrays.
//
// A window's slab holds earlier batches' tasks too, read by index; its
// slots, stats, storage and emissions are its own. Windows are never
// cached or encoded.
type Plan struct {
	// Stats are the forest's (a window's) aggregate statistics.
	Stats forest.Stats
	// Storage is the peak storage occupancy of the schedule (Algorithm 3).
	Storage int
	// Cycles is the schedule's completion time Tc.
	Cycles int
	// Mixers is the mixer count Mc the schedule uses.
	Mixers int

	algorithm string
	packed    forest.PackedForest // the slab's forest
	slots     []sched.Assignment  // the slab's slot table: slots[i] places task first+i
	window    bool                // a persistent batch's window (NewWindow)
	first     int                 // the window's first task; 0 for every other plan
	pooled    int                 // the spares pooled as the window started

	once     sync.Once
	formed   atomic.Bool
	forest   *forest.Forest
	schedule *sched.Schedule
}

// NewPacked copies a packed plan out of the planner's pooled arenas into an
// owned slab: the forest pf, the slot table slots (slots[i] places task i)
// of an algorithm run on mixers mixers finishing at cycle cycles, and its
// peak storage. Stats come from PackedStats.
func NewPacked(pf *forest.PackedForest, slots []sched.Assignment, algorithm string, mixers, cycles, storage int) *Plan {
	slab := forest.PackedForest{
		Base:      pf.Base,
		Demand:    pf.Demand,
		Tasks:     append([]forest.PTask(nil), pf.Tasks...),
		TreeStart: append([]int32(nil), pf.TreeStart...),
	}
	st := slab.PackedStats(0, make([]int64, pf.Base.Target.N()))
	return FromSlab(slab, append([]sched.Assignment(nil), slots...), algorithm, mixers, cycles, st, storage)
}

// NewWindow wraps one persistent batch as a plan owning the slab pf, the
// engine's forest whose tasks from first on are the batch's window (the
// earlier ones are committed history), and the window's slot table
// (slots[i] places task first+i). pooled spares waited in the pool as the
// window started; storage is its peak occupancy with every spare pooled.
// Stats are PackedStats over the window: its waste is the pool's change.
func NewWindow(pf forest.PackedForest, first, pooled int, slots []sched.Assignment, algorithm string, mixers, cycles, storage int) *Plan {
	st := pf.PackedStats(first, make([]int64, pf.Base.Target.N()))
	p := FromSlab(pf, slots, algorithm, mixers, cycles, st, storage)
	p.window, p.first, p.pooled = true, first, pooled
	return p
}

// FromSlab wraps a slab the plan takes ownership of — the packed forest pf
// and its slot table (slots[i] places task i) of an algorithm run on mixers
// mixers finishing at cycle cycles — with the stats and peak storage
// claimed for it: the planner's own count (NewPacked) or an artifact's
// claims, which its verification (audit.CheckPacked) then re-derives.
func FromSlab(pf forest.PackedForest, slots []sched.Assignment, algorithm string, mixers, cycles int, st forest.Stats, storage int) *Plan {
	return &Plan{Stats: st, Storage: storage, Cycles: cycles, Mixers: mixers, algorithm: algorithm, packed: pf, slots: slots}
}

// NewPlan wraps a built forest and the schedule of its every task, packing
// the forest into the plan's slab and deriving the stats and the peak
// storage from them; f and s are the plan's pointer forms. f must have a
// packed form, as every built forest has (each task feeds at most two
// consumers); NewPlan panics on one forest.Pack refuses.
func NewPlan(f *forest.Forest, s *sched.Schedule) *Plan {
	pf, err := forest.Pack(f)
	if err != nil {
		panic(err)
	}
	p := FromSlab(*pf, s.Slots, s.Algorithm, s.Mixers, s.Cycles, f.Stats(), sched.StorageUnits(s))
	p.forest, p.schedule = f, s
	p.formed.Store(true)
	return p
}

// Forest returns the plan's pointer-linked forest, materializing it from
// the slab on the first call. Every call returns the same forest. A
// window's forest is the engine's forest as it stood when the batch
// committed.
func (p *Plan) Forest() *forest.Forest {
	p.materialize()
	return p.forest
}

// Schedule returns the plan's schedule over Forest, materializing both from
// the slab on the first call. Every call returns the same schedule; its
// Slots share the slab's slot table, and a window's starts at FirstTask.
func (p *Plan) Schedule() *sched.Schedule {
	p.materialize()
	return p.schedule
}

func (p *Plan) materialize() {
	if p.formed.Load() {
		return
	}
	p.once.Do(func() {
		p.forest = p.packed.Materialize()
		p.schedule = &sched.Schedule{Forest: p.forest, Mixers: p.Mixers, Algorithm: p.algorithm, Slots: p.slots, Cycles: p.Cycles, FirstTask: p.first}
		p.formed.Store(true)
		obs.Inc("plancache.materializations")
	})
}

// Materialized reports whether the plan's pointer forms exist: always for a
// plan given in them, and for a slab once Forest or Schedule has run.
func (p *Plan) Materialized() bool { return p.formed.Load() }

// Packed returns the slab's packed forest. Its task IDs are the
// materialized forest's.
func (p *Plan) Packed() *forest.PackedForest { return &p.packed }

// Slots returns the slab's slot table: slots[i] places task first+i of
// Packed, where first is 0 but for a window.
func (p *Plan) Slots() []sched.Assignment { return p.slots }

// Window reports whether the plan is a persistent batch's window and, if
// so, its first task and the spares the pool held as it started.
func (p *Plan) Window() (first, pooled int, ok bool) { return p.first, p.pooled, p.window }

// Algorithm names the scheduling scheme the plan's slots come from.
func (p *Plan) Algorithm() string { return p.algorithm }

// EmitCycles calls fn, in task order, with the schedule cycle and target
// droplet count of every component-tree root the schedule runs: the
// plan's emissions. A window reports the roots of its own trees only.
func (p *Plan) EmitCycles(fn func(cycle, count int)) {
	f := &p.packed
	for k := f.TreesBefore(p.first); k < f.NumTrees(); k++ {
		fn(int(p.slots[int(f.Root(k))-p.first].Cycle), 2)
	}
}

// Stats is an expvar-style snapshot of a cache's counters. All counters are
// updated inside the cache's critical section, so every snapshot is
// internally consistent: Lookups == Hits + Misses holds exactly, never
// approximately, no matter how many goroutines are hitting the cache.
type Stats struct {
	// Lookups counts Get calls; Hits and Misses count their outcomes
	// (Lookups == Hits + Misses in every snapshot). Puts counts insertions
	// and Evictions counts LRU displacements. Builds counts GetOrBuildCtx
	// misses that actually ran the build function — the cold-plan cost the
	// distributed artifact tier exists to amortize fleet-wide.
	Lookups, Hits, Misses, Puts, Evictions, Builds int64
	// Size is the current plan count; Capacity the configured bound, which
	// bounds the scan and total tables too. Scans is the current
	// demand-scan count and Totals the current total-cycles count.
	Size, Capacity, Scans, Totals int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Tier is a slower store under a Cache (a node's artifact tier), used for
// pristine plans only: Fetch before a miss builds, Publish after it built.
type Tier interface {
	// Fetch returns the plan for k, or false to let the cache build it.
	Fetch(ctx context.Context, k Key) (*Plan, bool)
	// Publish receives a plan this cache built for k.
	Publish(ctx context.Context, k Key, p *Plan)
}

// Cache is a concurrency-safe bounded LRU cache of plans and demand scans.
// The zero value is not usable; construct with New. A nil *Cache is valid
// and memoises nothing — every lookup misses and every insert is dropped —
// so call sites disable caching by passing nil.
type Cache struct {
	mu     sync.Mutex
	plans  *lru.Cache[Key, *Plan]
	scans  *lru.Cache[ScanKey, int]
	totals *lru.Cache[ScanKey, int]
	tier   Tier // nil: the cache is the only tier

	// Counters live under mu (not as free-running atomics bumped after
	// unlock) so a Stats snapshot can never observe a lookup whose outcome
	// has not been recorded yet: lookups == hits + misses is an invariant
	// of every snapshot, which TestStatsRaceConsistency relies on. builds
	// is the exception: GetOrBuildCtx runs the build function outside the
	// lock (builds are slow), so it is a free-running atomic. The counters
	// cover plans only; scans and totals are counted by Stats.Scans and
	// Stats.Totals alone.
	lookups, hits, misses, puts, evictions int64
	builds                                 atomic.Int64
}

// DefaultCapacity bounds each table of a server's own cache and of the
// process-wide default. A serving node sees a working set of repeated
// (ratio, demand, mixers, scheduler) tuples that a modest bound covers,
// while worst-case retention, at a few kilobytes per plan, stays in the
// low megabytes; a scan entry is a few words.
const DefaultCapacity = 1024

// New returns an empty cache bounded to capacity plans, capacity scans and
// capacity totals (minimum 1 each).
func New(capacity int) *Cache {
	return &Cache{
		plans:  lru.New[Key, *Plan](capacity),
		scans:  lru.New[ScanKey, int](capacity),
		totals: lru.New[ScanKey, int](capacity),
	}
}

var std = New(DefaultCapacity)

// Default returns the process-wide cache. Only the edges resolve it: the
// root dmfb facade and a server configured without a cache of its own.
func Default() *Cache { return std }

// Get returns the cached plan for k and marks it most recently used.
func (c *Cache) Get(k Key) (*Plan, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	c.lookups++
	p, ok := c.plans.Get(k)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if !ok {
		obs.Inc("plancache.misses")
		return nil, false
	}
	obs.Inc("plancache.hits")
	return p, true
}

// Put inserts (or refreshes) a plan, evicting the least recently used plan
// when the cache is full.
func (c *Cache) Put(k Key, p *Plan) {
	if c == nil || p == nil {
		return
	}
	c.mu.Lock()
	added, evicted := c.plans.Add(k, p)
	if added {
		c.puts++
	}
	if evicted {
		c.evictions++
	}
	c.mu.Unlock()
	if evicted {
		obs.Inc("plancache.evictions")
	}
}

// Scan returns the memoised D′ for k, marking it most recently used (a warm
// lookup allocates nothing); on a miss it runs scan and memoises a
// successful result, evicting the least recently used scan when the table
// is full. A nil cache always runs scan.
func (c *Cache) Scan(k ScanKey, scan func() (int, error)) (int, error) {
	if c == nil {
		return scan()
	}
	return c.memo(c.scans, k, scan)
}

// Total returns the memoised total cycles of the multi-pass plan of demand
// k.Limit, as Scan does D′: a warm lookup allocates nothing, a miss runs
// count and memoises a successful result, and a nil cache always runs
// count. The total is a pure function of the key, as every pass is of its
// own, so a memoised total is exactly what planning the demand would sum.
func (c *Cache) Total(k ScanKey, count func() (int, error)) (int, error) {
	if c == nil {
		return count()
	}
	return c.memo(c.totals, k, count)
}

// memo is Scan and Total over their table t: compute runs outside the
// lock, so concurrent misses on one key may both compute.
func (c *Cache) memo(t *lru.Cache[ScanKey, int], k ScanKey, compute func() (int, error)) (int, error) {
	c.mu.Lock()
	v, ok := t.Get(k)
	c.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := compute()
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	t.Add(k, v)
	c.mu.Unlock()
	return v, nil
}

// SetTier installs t under the cache (nil removes it). Call it before the
// cache is shared: the miss path reads the tier without a lock.
func (c *Cache) SetTier(t Tier) { c.tier = t }

// GetOrBuildCtx returns the cached plan for k. A pristine miss asks the tier
// first (its plan is promoted, not built); failing that, build's plan is
// cached and, if pristine, published. Concurrent callers missing on one key
// may both build: plans are deterministic, so either result is correct.
func (c *Cache) GetOrBuildCtx(ctx context.Context, k Key, build func() (*Plan, error)) (*Plan, error) {
	if p, ok := c.Get(k); ok {
		return p, nil
	}
	tiered := c != nil && c.tier != nil && k.Policy == PristinePolicy
	if tiered {
		if p, ok := c.tier.Fetch(ctx, k); ok {
			c.Put(k, p)
			return p, nil
		}
	}
	if c != nil {
		c.builds.Add(1)
	}
	obs.Inc("plancache.builds")
	p, err := build()
	if err != nil {
		return nil, err
	}
	c.Put(k, p)
	if tiered {
		c.tier.Publish(ctx, k, p)
	}
	return p, nil
}

// Purge drops every plan, scan and total. Counters are not reset; see
// ResetStats.
func (c *Cache) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.plans.Purge()
	c.scans.Purge()
	c.totals.Purge()
	c.mu.Unlock()
}

// PurgeScans drops every scan and keeps the plans.
func (c *Cache) PurgeScans() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.scans.Purge()
	c.mu.Unlock()
}

// ResetStats zeroes the lookup/hit/miss/put/eviction counters.
func (c *Cache) ResetStats() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.lookups, c.hits, c.misses, c.puts, c.evictions = 0, 0, 0, 0, 0
	c.builds.Store(0)
	c.mu.Unlock()
}

// Stats snapshots the cache's counters. The snapshot is taken atomically
// under the cache lock, so Lookups == Hits + Misses holds in every snapshot.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Lookups:   c.lookups,
		Hits:      c.hits,
		Misses:    c.misses,
		Puts:      c.puts,
		Evictions: c.evictions,
		Builds:    c.builds.Load(),
		Size:      c.plans.Len(),
		Capacity:  c.plans.Cap(),
		Scans:     c.scans.Len(),
		Totals:    c.totals.Len(),
	}
}
