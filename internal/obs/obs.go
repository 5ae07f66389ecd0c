// Package obs is the observability layer of the droplet-streaming engine:
// a process-wide metrics registry (counters and histograms), structured
// JSONL event tracing, and cycle-profiling timer hooks, all behind a
// near-zero-cost disabled default.
//
// The hot-path contract is a single atomic pointer load: when observability
// is disabled (the default), every Inc/Add/Observe/StartTimer/Emit call
// reduces to loading a nil pointer and returning — no locks, no maps, no
// allocation — so the planning and execution kernels can be instrumented
// unconditionally. Enable swaps in a live registry with one atomic store;
// Disable swaps it back out. The package-level benchmark pins the disabled
// cost at a few nanoseconds per call site, which keeps the end-to-end
// overhead of the instrumented engine within the ≤2% budget.
//
// Callers that build Emit field maps should guard the construction with
// Tracing() so the map is built only when a trace writer will read it:
//
//	if obs.Tracing() {
//	    obs.Emit("stream.plan", map[string]any{"demand": d})
//	}
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// registry is the live state behind an enabled observability session.
type registry struct {
	mu       sync.RWMutex
	counters map[string]*atomic.Int64
	gauges   map[string]*atomic.Int64
	hists    map[string]*histogram

	traceMu sync.Mutex
	trace   io.Writer
	seq     int64
	start   time.Time
}

// active is the atomic on/off switch: nil means disabled. Every public
// entry point loads it exactly once.
var active atomic.Pointer[registry]

// Options configures an observability session.
type Options struct {
	// Trace, when non-nil, receives one JSON object per line for every
	// Emit call (the structured event trace).
	Trace io.Writer
}

// Enabled reports whether observability is currently on. It is the guard
// callers use to skip work done only to record a metric; Emit field maps
// take Tracing instead.
func Enabled() bool { return active.Load() != nil }

// Tracing reports whether observability is on with a trace writer, which
// Emit writes to. It is the guard callers use to skip building Emit field
// maps: enabled without a writer (dmfbd's default), Emit drops them.
func Tracing() bool {
	r := active.Load()
	return r != nil && r.trace != nil
}

// Enable turns observability on with a fresh, empty registry. Metrics
// recorded by a previous session are discarded.
func Enable(opts Options) {
	active.Store(&registry{
		counters: map[string]*atomic.Int64{},
		gauges:   map[string]*atomic.Int64{},
		hists:    map[string]*histogram{},
		trace:    opts.Trace,
		start:    time.Now(),
	})
}

// Disable turns observability off; subsequent calls revert to the no-op
// fast path. The final metric values remain readable through the Snapshot
// taken before disabling (TakeSnapshot); after Disable they are gone.
func Disable() { active.Store(nil) }

// Inc adds 1 to the named counter.
func Inc(name string) { Add(name, 1) }

// Add adds delta to the named counter. Disabled: one atomic load.
func Add(name string, delta int64) {
	r := active.Load()
	if r == nil {
		return
	}
	r.counter(name).Add(delta)
}

func (r *registry) counter(name string) *atomic.Int64 {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &atomic.Int64{}
	r.counters[name] = c
	return c
}

// SetGauge sets the named gauge to v. Unlike a counter, a gauge is a
// point-in-time level (cache occupancy, queue depth); each Set replaces the
// previous value. Disabled: one atomic load, no allocation.
func SetGauge(name string, v int64) {
	r := active.Load()
	if r == nil {
		return
	}
	r.gauge(name).Store(v)
}

// Gauge returns the named gauge's value (0 when absent or disabled).
func Gauge(name string) int64 {
	r := active.Load()
	if r == nil {
		return 0
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if !ok {
		return 0
	}
	return g.Load()
}

func (r *registry) gauge(name string) *atomic.Int64 {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &atomic.Int64{}
	r.gauges[name] = g
	return g
}

// histogram accumulates a value distribution: count, sum, min, max.
type histogram struct {
	mu    sync.Mutex
	count int64
	sum   float64
	min   float64
	max   float64
}

func (h *histogram) observe(v float64) {
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Observe records one sample into the named histogram.
func Observe(name string, v float64) {
	r := active.Load()
	if r == nil {
		return
	}
	r.hist(name).observe(v)
}

func (r *registry) hist(name string) *histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = &histogram{}
	r.hists[name] = h
	return h
}

// noopStop is the shared disabled-path timer closure: StartTimer must not
// allocate when observability is off.
var noopStop = func() {}

// StartTimer starts a cycle-profiling timer; calling the returned function
// records the elapsed wall time (in seconds) into the named histogram.
// Disabled: returns a shared no-op closure without reading the clock.
func StartTimer(name string) func() {
	r := active.Load()
	if r == nil {
		return noopStop
	}
	t0 := time.Now()
	return func() { Observe(name, time.Since(t0).Seconds()) }
}

// HistStat is a histogram snapshot.
type HistStat struct {
	Count    int64
	Sum      float64
	Min, Max float64
}

// Mean returns Sum/Count, or 0 before any sample.
func (h HistStat) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Snapshot is a point-in-time copy of every registered metric.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistStat
}

// Counter returns the named counter's value (0 when absent or disabled).
func Counter(name string) int64 {
	r := active.Load()
	if r == nil {
		return 0
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if !ok {
		return 0
	}
	return c.Load()
}

// TakeSnapshot copies every counter and histogram. Returns an empty
// snapshot when disabled.
func TakeSnapshot() Snapshot {
	s := Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}, Histograms: map[string]HistStat{}}
	r := active.Load()
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		h.mu.Lock()
		s.Histograms[name] = HistStat{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		h.mu.Unlock()
	}
	return s
}

// WriteMetrics renders the current snapshot as sorted "name value" lines —
// the CLI -metrics exporter format.
func WriteMetrics(w io.Writer) error {
	s := TakeSnapshot()
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", n, s.Counters[n]); err != nil {
			return err
		}
	}
	gnames := make([]string, 0, len(s.Gauges))
	for n := range s.Gauges {
		gnames = append(gnames, n)
	}
	sort.Strings(gnames)
	for _, n := range gnames {
		if _, err := fmt.Fprintf(w, "%s %d\n", n, s.Gauges[n]); err != nil {
			return err
		}
	}
	hnames := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := s.Histograms[n]
		if _, err := fmt.Fprintf(w, "%s count=%d mean=%s min=%s max=%s\n",
			n, h.Count, fnum(h.Mean()), fnum(h.Min), fnum(h.Max)); err != nil {
			return err
		}
	}
	return nil
}

func fnum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
