package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wal"
)

const (
	// minWarmSteps is the least number of warm-up steps: steady state is
	// judged between consecutive steps, so set-up does the same work every
	// run unless a workload takes longer to settle.
	minWarmSteps = 2
	// maxWarmSteps bounds the warm-up: a workload that has not settled by
	// then fails the run instead of being measured unsteady.
	maxWarmSteps = 30
	// prefillBase offsets the indices of tier-filling requests so they
	// never collide with the generated sequence.
	prefillBase = 1 << 40
)

// shrink cuts a workload down for the package's tests.
func (w *workload) shrink() {
	if w.tierCap > 0 {
		w.tierCap, w.cacheCap = 24, 16
	}
}

// setup is one set-up of the servers, ready for (or past) a measured
// window.
type setup struct {
	w         *workload
	o         options
	dir       string
	tr        *tracer
	f         *fleet
	d         *driver
	setupTime time.Duration
	digest    string
	prefix    []request
	resps     []*server.StreamResponse
	fill      int // lowest artifact-tier fill over the nodes at window open
	checkErrs []string
}

func (o options) prefixLen() int {
	if o.quick {
		return 16
	}
	return goldenPrefix
}

// warmStep is the number of requests of one warm-up step.
func (o options) warmStep(w *workload) int64 {
	if o.quick {
		return w.warmReqs / 10
	}
	return w.warmReqs
}

// setUp boots a fresh fleet, sends the golden prefix one request at a
// time, and warms the servers up to steady state. Process-wide caches are
// emptied first, so every set-up starts as cold as a freshly started dmfbd.
func setUp(w *workload, o options, clients int, out io.Writer) (s *setup, err error) {
	t0 := time.Now()
	plancache.Default().Purge()
	stream.PurgeScanMemo()
	obs.Enable(obs.Options{})
	s = &setup{w: w, o: o}
	defer func() {
		if err != nil {
			err = errors.Join(err, s.tearDown())
			s = nil
		}
	}()
	if s.dir, err = os.MkdirTemp(o.workdir, "run-*"); err != nil {
		return s, err
	}
	if o.trace {
		s.tr = newTracer()
	}
	if s.f, err = bootFleet(w, s.dir, s.tr); err != nil {
		return s, err
	}
	s.d = newDriver(w, o.seed, s.f, s.tr, clients)

	n := o.prefixLen()
	s.prefix = make([]request, n)
	for i := range s.prefix {
		s.prefix[i] = w.gen(o.seed, uint64(i))
	}
	s.resps = s.d.sendAll(s.prefix, 1)
	dg := newDigest()
	for _, r := range s.resps {
		if r != nil {
			dg.add(r)
		}
	}
	s.digest = dg.sum()
	s.d.next.Store(uint64(n))
	for c := range s.d.cursor {
		s.d.cursor[c] = uint64(n)
	}
	tPrefix := time.Since(t0)
	steps, err := s.warmUp()
	if err != nil {
		return s, err
	}
	s.setupTime = time.Since(t0)
	fmt.Fprintf(out, "set-up %.3fs: boot and %d-request prefix %.3fs, warm-up %.3fs (%d steps to steady state, tier fill %d)\n",
		s.setupTime.Seconds(), n, tPrefix.Seconds(), (s.setupTime - tPrefix).Seconds(), steps, s.fill)
	return s, nil
}

// warmUp brings the servers to steady state and asserts it: every cluster
// tier at capacity, the plan cache full (or, for workloads whose specs fit
// in it, missing nothing), every session open, and the cold-build rate
// settled between two consecutive warm-up steps.
func (s *setup) warmUp() (int, error) {
	if s.w.tierCap > 0 {
		if err := s.fillTiers(); err != nil {
			return 0, err
		}
	}
	if err := s.openSessions(); err != nil {
		return 0, err
	}
	prev := math.NaN()
	why := ""
	for step := 0; step < maxWarmSteps; step++ {
		a := takeSnap(s.f)
		win := s.d.loopN(s.o.warmStep(s.w))
		dl := diff(a, takeSnap(s.f))
		if s.d.failed.Load() > 0 {
			return step, fmt.Errorf("warm-up: %d failed requests, first: %v", s.d.failed.Load(), s.d.failures)
		}
		if win.n == 0 {
			return step, fmt.Errorf("warm-up step completed no requests")
		}
		builds := float64(dl.cache.Builds) / float64(win.n)
		var ok bool
		ok, why = s.steady(dl, builds, prev)
		if ok && step+1 >= minWarmSteps {
			s.fill = s.minFill()
			return step + 1, nil
		}
		prev = builds
	}
	return maxWarmSteps, fmt.Errorf("no steady state after %d warm-up steps: %s", maxWarmSteps, why)
}

// steady judges one warm-up step against the previous one.
func (s *setup) steady(dl delta, builds, prev float64) (bool, string) {
	for i, acked := range s.d.acked {
		if len(acked) == 0 {
			return false, fmt.Sprintf("session %s not open yet", sessionName(i))
		}
	}
	if s.w.tierCap > 0 {
		if fill := s.minFill(); fill < s.w.tierCap {
			return false, fmt.Sprintf("artifact tier at %d of %d", fill, s.w.tierCap)
		}
	}
	if s.w.fitsCache {
		// Every spec fits in the plan cache: steady means no misses.
		if dl.cache.Misses > 0 {
			return false, fmt.Sprintf("%d plan-cache misses in the last step", dl.cache.Misses)
		}
		return true, ""
	}
	if dl.cache.Size < dl.cache.Capacity {
		return false, fmt.Sprintf("plan cache at %d of %d", dl.cache.Size, dl.cache.Capacity)
	}
	if math.IsNaN(prev) || math.Abs(builds-prev) > 0.15*math.Max(builds, prev)+0.002 {
		return false, fmt.Sprintf("cold-build rate moved from %.4f to %.4f per request", prev, builds)
	}
	return true, ""
}

// openSessions sends a first two-droplet batch to every session that has
// none yet, so every set-up opens all of them.
func (s *setup) openSessions() error {
	var rqs []request
	ratios := protocolRatios()
	for i, acked := range s.d.acked {
		if len(acked) == 0 {
			rqs = append(rqs, sessionBatch(prefillBase+uint64(i), i, 2, ratios))
		}
	}
	s.d.sendAll(rqs, s.d.clients)
	if s.d.failed.Load() > 0 {
		return fmt.Errorf("opening sessions: %d failed requests, first: %v", s.d.failed.Load(), s.d.failures)
	}
	return nil
}

// minFill returns the lowest artifact-tier entry count over the nodes.
func (s *setup) minFill() int {
	fill := -1
	for _, nd := range s.f.nodes {
		if nd.store == nil {
			return 0
		}
		if n := nd.store.Len(); fill < 0 || n < fill {
			fill = n
		}
	}
	return max(fill, 0)
}

// fillTiers sends the Zipf pool's specs in popularity order, spread over
// the nodes, until every node's artifact tier holds its capacity.
func (s *setup) fillTiers() error {
	pool := s.w.pool
	chunk := max(s.w.tierCap/4, 8)
	for rank := 0; s.minFill() < s.w.tierCap; rank += chunk {
		if rank >= len(pool) {
			return fmt.Errorf("key pool of %d exhausted with tiers at %d of %d", len(pool), s.minFill(), s.w.tierCap)
		}
		var rqs []request
		for r := rank; r < min(rank+chunk, len(pool)); r++ {
			rqs = append(rqs, encodeRequest(request{Index: prefillBase + uint64(r), Path: "/v1/plan", Node: r % s.w.nodes, Session: -1, Req: pool[r]}))
		}
		s.d.sendAll(rqs, s.d.clients)
		if s.d.failed.Load() > 0 {
			return fmt.Errorf("tier fill: %d failed requests, first: %v", s.d.failed.Load(), s.d.failures)
		}
		s.f.waitPublish()
	}
	return nil
}

// tearDown stops the clients and servers, checks the session log against
// the batches the clients saw acknowledged, and removes the set-up's
// directory. It is safe on a partially built set-up.
func (s *setup) tearDown() error {
	var errs []error
	if s.d != nil {
		s.d.close()
	}
	if s.f != nil {
		errs = append(errs, s.f.close())
		for _, nd := range s.f.nodes {
			if nd.walPath != "" && s.d != nil {
				if err := s.checkWAL(nd.walPath); err != nil {
					s.checkErrs = append(s.checkErrs, err.Error())
				}
			}
		}
	}
	obs.Disable()
	if s.dir != "" {
		errs = append(errs, os.RemoveAll(s.dir))
	}
	return errors.Join(errs...)
}

// checkWAL replays the closed session log: it must hold exactly the
// batches the clients saw acknowledged — same order, demand, start cycle
// and emitted count — and no failed or unfinished batch.
func (s *setup) checkWAL(path string) error {
	recs, err := wal.Replay(path)
	if err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	logged := map[string][]ackedBatch{}
	open := map[string]int{}
	for _, r := range recs {
		switch r.Kind {
		case wal.KindBatchAccept:
			open[r.Session]++
		case wal.KindBatchDone:
			open[r.Session]--
			if r.Batch != len(logged[r.Session])+1 {
				return fmt.Errorf("wal: session %s batch %d out of order", r.Session, r.Batch)
			}
			logged[r.Session] = append(logged[r.Session], ackedBatch{r.Demand, r.StartCycle, r.Emitted})
		case wal.KindBatchFail:
			return fmt.Errorf("wal: session %s batch %d failed: %s", r.Session, r.Batch, r.Error)
		}
	}
	total := 0
	for i, acked := range s.d.acked {
		name := sessionName(i)
		got := logged[name]
		if open[name] != 0 || len(got) != len(acked) {
			return fmt.Errorf("wal: session %s logs %d done batches (%d unfinished), clients saw %d acknowledged", name, len(got), open[name], len(acked))
		}
		for k := range acked {
			if got[k] != acked[k] {
				return fmt.Errorf("wal: session %s batch %d logged as %+v, acknowledged as %+v", name, k+1, got[k], acked[k])
			}
		}
		total += len(acked)
		delete(logged, name)
	}
	if len(logged) > 0 {
		return fmt.Errorf("wal: %d sessions logged that no client opened", len(logged))
	}
	if total == 0 {
		return fmt.Errorf("wal: no acknowledged batch")
	}
	return nil
}

// measured is what a set-up's measured window produced.
type measured struct {
	rps, p50, p99, cpuPerReq float64
	layer                    map[string]metric
}

// stats are the client-side figures of one window, each the median over
// the window's sub-windows. The tail of a sub-window is its p99, or the
// highest percentile with ten samples beyond it when it holds fewer than
// 1000; tailQ is the lowest percentile so used.
type stats struct {
	n                  int
	rps, p50, p99, cpu float64
	tailQ              float64
	half1, half2       float64
	subRPS             []float64
}

func windowStats(win *window) stats {
	st := stats{n: win.n, tailQ: 1}
	slice := (win.dur / subWindows).Seconds()
	var rps, p50, p99, cpu []float64
	for k := range win.subs {
		h := &win.subs[k]
		q := tailRank(h.n)
		st.tailQ = math.Min(st.tailQ, q)
		rps = append(rps, float64(h.n)/slice)
		p50 = append(p50, h.quantile(0.5))
		p99 = append(p99, h.quantile(q))
		if k+1 < len(win.cpu) && h.n > 0 {
			cpu = append(cpu, ms(win.cpu[k+1]-win.cpu[k])/float64(h.n))
		}
	}
	st.rps, st.p50, st.p99 = median(rps), median(p50), median(p99)
	st.subRPS = rps
	if len(cpu) > 0 {
		st.cpu = median(cpu)
	}
	half := win.dur.Seconds() / 2
	st.half1 = float64(win.halves[0]) / half
	st.half2 = float64(win.halves[1]) / half
	return st
}

// measure runs the measured window (two of them, untraced then traced,
// with --trace 1) and reports it.
func (s *setup) measure(o options, out io.Writer) (*measured, error) {
	dur := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		a := takeSnap(s.f)
		win := s.d.loop(dur)
		dl := diff(a, takeSnap(s.f))
		st := windowStats(win)
		s.report(out, "window", win, st, dl)
		return &measured{rps: st.rps, p50: st.p50, p99: st.p99, cpuPerReq: st.cpu}, nil
	}

	a := takeSnap(s.f)
	w0 := s.d.loop(dur / 2)
	st0 := windowStats(w0)
	s.report(out, "untraced half", w0, st0, diff(a, takeSnap(s.f)))

	walSize0 := s.walSize()
	i0 := s.d.next.Load()
	s.tr.on.Store(true)
	a = takeSnap(s.f)
	w1 := s.d.loop(dur / 2)
	dl := diff(a, takeSnap(s.f))
	s.tr.on.Store(false)
	i1 := s.d.next.Load()
	st1 := windowStats(w1)
	s.report(out, "traced half", w1, st1, dl)
	served := s.tr.snapshot()

	replay, err := runLayerPass(s.tr, s.w, s.dir, s.fill, s.prefix, s.resps)
	if err != nil {
		return nil, err
	}
	lm := s.layerTable(out, served, replay, st0, st1, dl, s.walSize()-walSize0, s.distinctKeys(i0, i1))
	if err := s.writeTrace(out); err != nil {
		return nil, err
	}
	return &measured{rps: st1.rps, p50: st1.p50, p99: st1.p99, layer: lm}, nil
}

func (s *setup) walSize() int64 {
	var n int64
	for _, nd := range s.f.nodes {
		if nd.wal != nil {
			n += nd.wal.Size()
		}
	}
	return n
}

// distinctKeys counts the distinct specs among generated requests
// [i0, i1) of the shared sequence.
func (s *setup) distinctKeys(i0, i1 uint64) int {
	seen := map[string]bool{}
	for i := i0; i < i1; i++ {
		seen[string(s.w.gen(s.o.seed, i).Body)] = true
	}
	return len(seen)
}

func (s *setup) writeTrace(out io.Writer) error {
	dir := filepath.Join(s.o.workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", s.w.name, s.o.seed))
	if err := s.tr.writeJSONL(path); err != nil {
		return err
	}
	fmt.Fprintf(out, "spans: %s (%d dropped past the in-memory bound)\n", path, s.tr.dropped)
	return nil
}

// report prints a window's client figures, drift and the counter deltas
// this workload produced in it.
func (s *setup) report(out io.Writer, label string, win *window, st stats, dl delta) {
	fmt.Fprintf(out, "%s: %d ok + %d failed requests in %.2fs; throughput %.1f/s (sub-window median; first half %.1f, second half %.1f, drift %+.1f%%)\n",
		label, st.n, win.failed, win.dur.Seconds(), st.rps, st.half1, st.half2, 100*(st.half2-st.half1)/math.Max(st.half1, 1e-9))
	fmt.Fprintf(out, "  sub-window throughput: %s\n", fmtList(st.subRPS))
	fmt.Fprintf(out, "  latency p50 %.4f ms, p%.4g %.4f ms (medians over %d sub-windows of %d samples); cpu %.4f ms/req (sub-window median; %.4f over the window)\n",
		st.p50, 100*st.tailQ, st.p99, subWindows, st.n, st.cpu, ms(dl.cpu)/float64(max(st.n, 1)))
	n := float64(max(st.n, 1))
	fmt.Fprintf(out, "  go runtime: %.0f B/req, %.1f mallocs/req, gc cpu %.4f\n", dl.alloc/n, dl.mallocs/n, dl.gcFrac)
	c := dl.cache
	fmt.Fprintf(out, "  plancache (all nodes): %d lookups, %d hits, %d misses, %d builds, %d evictions, %d/%d entries\n",
		c.Lookups, c.Hits, c.Misses, c.Builds, c.Evictions, c.Size, c.Capacity)
	names := make([]string, 0, len(dl.counters))
	for k := range dl.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "  obs counter deltas (%s only):", s.w.name)
	for _, k := range names {
		fmt.Fprintf(out, " %s=%d", k, dl.counters[k])
	}
	fmt.Fprintln(out)
}
