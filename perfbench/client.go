package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// ackedBatch is one session batch the server answered 200.
type ackedBatch struct{ demand, startCycle, emitted int }

// driver sends a workload's requests through closed-loop clients: each
// client sends its next request only after the previous one completed.
type driver struct {
	w       *workload
	seed    uint64
	f       *fleet
	tr      *tracer
	client  *http.Client
	clients int

	next atomic.Uint64 // next index of the shared sequence (no sessions)
	// Workloads with sessions partition the sequence over clients (session
	// s belongs to client s % clients, stateless request i to client
	// i % clients), so each session's batches stay ordered and each client
	// tracks its own sessions' timelines without locking.
	cursor  []uint64       // per client: next index to consider
	elapsed []int          // per session: cycles on the timeline
	acked   [][]ackedBatch // per session

	attempted, failed  atomic.Int64
	shortPassOverflows atomic.Int64 // responses showing errShortPassStorage
	failMu             sync.Mutex
	failures           []string // the first few failure messages
}

func newDriver(w *workload, seed uint64, f *fleet, tr *tracer, clients int) *driver {
	d := &driver{
		w: w, seed: seed, f: f, tr: tr, clients: clients,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2 * clients,
			IdleConnTimeout:     30 * time.Second,
		}},
		cursor:  make([]uint64, clients),
		elapsed: make([]int, w.sessions),
		acked:   make([][]ackedBatch, w.sessions),
	}
	return d
}

// close releases the client's idle connections (and their goroutines).
func (d *driver) close() { d.client.Transport.(*http.Transport).CloseIdleConnections() }

func (d *driver) fail(err error) {
	d.failed.Add(1)
	d.failMu.Lock()
	if len(d.failures) < 5 {
		d.failures = append(d.failures, err.Error())
	}
	d.failMu.Unlock()
}

// send performs one round trip, checks the response and returns its
// latency. Session bookkeeping (timeline, acked batches) is updated from
// every 200 response, so one wrong batch does not cascade into the next.
func (d *driver) send(rq *request) (time.Duration, *server.StreamResponse, error) {
	d.attempted.Add(1)
	hreq, err := http.NewRequest(http.MethodPost, d.f.nodes[rq.Node].url+rq.Path, bytes.NewReader(rq.Body))
	if err != nil {
		return 0, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	var root span
	traced := d.tr != nil && d.tr.on.Load()
	if traced {
		root = span{Name: "client.request", ID: d.tr.newID(), Req: rq.Index + 1}
		hreq.Header.Set(hdrReq, strconv.FormatUint(root.Req, 10))
		hreq.Header.Set(hdrSpan, strconv.FormatUint(root.ID, 10))
		root.Start = d.tr.now()
	}
	t0 := time.Now()
	resp, err := d.client.Do(hreq)
	if err != nil {
		return 0, nil, fmt.Errorf("request %d: %w", rq.Index, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if traced {
		root.End = d.tr.now()
		d.tr.record(root)
	}
	if err != nil {
		return lat, nil, fmt.Errorf("request %d: read body: %w", rq.Index, err)
	}
	if resp.StatusCode != http.StatusOK {
		return lat, nil, fmt.Errorf("request %d %s %s: status %d: %s", rq.Index, rq.Path, rq.Body, resp.StatusCode, bytes.TrimSpace(body))
	}
	elapsed := 0
	if rq.Session >= 0 {
		elapsed = d.elapsed[rq.Session]
	}
	pr, err := checkResponse(rq, body, elapsed)
	if errors.Is(err, errShortPassStorage) {
		d.shortPassOverflows.Add(1)
		err = nil
	}
	if pr != nil && rq.Session >= 0 {
		d.elapsed[rq.Session] = pr.StartCycle - 1 + pr.TotalCycles
		d.acked[rq.Session] = append(d.acked[rq.Session], ackedBatch{rq.Req.Demand, pr.StartCycle, pr.Emitted})
	}
	if err != nil {
		return lat, pr, fmt.Errorf("request %d %s %s: %w", rq.Index, rq.Path, rq.Body, err)
	}
	return lat, pr, nil
}

// nextRequest returns client c's next request of the generated sequence.
func (d *driver) nextRequest(c int) request {
	if d.w.sessions == 0 {
		return d.w.gen(d.seed, d.next.Add(1)-1)
	}
	for {
		rq := d.w.gen(d.seed, d.cursor[c])
		d.cursor[c]++
		if owner := rq.Session; owner >= 0 && owner%d.clients == c {
			return rq
		} else if owner < 0 && rq.Index%uint64(d.clients) == uint64(c) {
			return rq
		}
	}
}

// subWindows is the number of equal slices a measured window is cut into;
// every end-to-end figure of the window is the median over the slices, so
// a stall of the shared machine's CPU or disk during one slice moves that
// slice, not the figure.
const subWindows = 5

// window is what one closed-loop phase measured: the successful requests
// started inside it, by sub-window.
type window struct {
	dur    time.Duration
	n      int
	failed int64
	subs   [subWindows]latHist
	// halves counts requests started in each half of a timed window.
	halves [2]int
	// cpu holds process CPU time at each sub-window boundary (timed
	// windows only), subWindows+1 readings.
	cpu []time.Duration
}

// loop runs the clients until dur has passed and returns what they
// measured. Only requests started inside the window count.
func (d *driver) loop(dur time.Duration) *window {
	return d.drive(dur, 0)
}

// loopN runs the clients until n requests were started.
func (d *driver) loopN(n int64) *window {
	return d.drive(0, n)
}

func (d *driver) drive(dur time.Duration, budget int64) *window {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		started atomic.Int64
	)
	out := new(window)
	t0 := time.Now()
	deadline := t0.Add(dur)
	stopCPU := make(chan struct{})
	cpuDone := make(chan []time.Duration, 1)
	if dur > 0 {
		go func() { cpuDone <- sampleCPU(t0, dur, stopCPU) }()
	}
	for c := 0; c < d.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mine := new(window)
			for {
				now := time.Now()
				if (dur > 0 && now.After(deadline)) || (budget > 0 && started.Add(1) > budget) {
					break
				}
				rq := d.nextRequest(c)
				lat, _, err := d.send(&rq)
				if err != nil {
					d.fail(err)
					mine.failed++
					continue
				}
				k, half := 0, 0
				if dur > 0 {
					k = min(int(now.Sub(t0)*subWindows/dur), subWindows-1)
					half = min(int(now.Sub(t0)*2/dur), 1)
				}
				mine.subs[k].add(lat)
				mine.halves[half]++
				mine.n++
			}
			mu.Lock()
			for k := range out.subs {
				out.subs[k].merge(&mine.subs[k])
			}
			out.halves[0] += mine.halves[0]
			out.halves[1] += mine.halves[1]
			out.n += mine.n
			out.failed += mine.failed
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	out.dur = time.Since(t0)
	if dur > 0 {
		close(stopCPU)
		out.cpu = <-cpuDone
		out.dur = dur
	}
	return out
}

// sampleCPU reads process CPU time at t0 and at every sub-window boundary
// of a window of length dur. stop cuts it short (the readings still taken
// are returned).
func sampleCPU(t0 time.Time, dur time.Duration, stop <-chan struct{}) []time.Duration {
	out := []time.Duration{processCPU()}
	for k := 1; k <= subWindows; k++ {
		t := time.NewTimer(time.Until(t0.Add(dur * time.Duration(k) / subWindows)))
		select {
		case <-t.C:
		case <-stop:
			t.Stop()
			return append(out, processCPU())
		}
		out = append(out, processCPU())
	}
	<-stop
	return out
}

// sendAll sends the given requests through the closed-loop clients, each
// exactly once, and returns the successful responses in request order.
func (d *driver) sendAll(rqs []request, clients int) []*server.StreamResponse {
	out := make([]*server.StreamResponse, len(rqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(rqs) {
					return
				}
				_, pr, err := d.send(&rqs[i])
				if err != nil {
					d.fail(err)
					continue
				}
				out[i] = pr
			}
		}()
	}
	wg.Wait()
	return out
}
