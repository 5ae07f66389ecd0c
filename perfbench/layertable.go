package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// callStat aggregates the spans of one call name.
type callStat struct {
	n    int
	self time.Duration
}

func (c *callStat) mean() time.Duration {
	if c == nil || c.n == 0 {
		return 0
	}
	return c.self / time.Duration(c.n)
}

// selfTimes folds spans into per-name call counts and self times: a span's
// duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]*callStat {
	child := map[uint64]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]*callStat{}
	for _, s := range spans {
		c := out[s.Name]
		if c == nil {
			c = &callStat{}
			out[s.Name] = c
		}
		c.n++
		c.self += s.dur() - child[s.ID]
	}
	return out
}

func sortedDurs(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// layerTable computes the per-layer metrics of a traced run and prints the
// attribution table. served holds the spans of the HTTP phase (client
// roots, handler wrappers, peer calls; only the traced half recorded any),
// replay those of the layer pass.
//
// A layer's share of handler time is the mean self time of its calls in
// the replay times how often the served traffic made that call per request
// (from the window's counter deltas), over the mean handler time. Coverage
// is the sum of the shares; the remainder is what no timed call explains.
func (s *setup) layerTable(out io.Writer, served, replay []span, untraced, traced stats, dl delta, walBytes int64, distinct int) map[string]metric {
	n := float64(max(traced.n, 1))
	cnt := func(name string) float64 { return float64(dl.counters[name]) }
	perReq := func(name string) float64 { return cnt(name) / n }

	// Client round trips and the handler spans under them.
	handler := map[uint64]time.Duration{}
	var handlerDurs []time.Duration
	peer := map[string]*callStat{}
	for _, sp := range served {
		switch {
		case sp.Name == "server.handler":
			handler[sp.Parent] = sp.dur()
			handlerDurs = append(handlerDurs, sp.dur())
		case strings.HasPrefix(sp.Name, "cluster."):
			c := peer[sp.Name]
			if c == nil {
				c = &callStat{}
				peer[sp.Name] = c
			}
			c.n++
			c.self += sp.dur()
		}
	}
	var overhead []time.Duration
	for _, sp := range served {
		if h, ok := handler[sp.ID]; ok && sp.Name == "client.request" {
			overhead = append(overhead, sp.dur()-h)
		}
	}
	hs := sortedDurs(handlerDurs)
	var hsum time.Duration
	for _, d := range hs {
		hsum += d
	}
	hmean := us(hsum) / math.Max(float64(len(hs)), 1)

	calls := selfTimes(replay)
	b := float64(dl.cache.Builds) / n
	coreNews := 1.0
	if s.w.clustered() {
		coreNews = 2 // planKeyFor builds a second engine per request
	}
	analyzePerSelection := 0.0
	if c := calls["errormodel.analyze"]; c != nil {
		analyzePerSelection = float64(c.n) / float64(max(countErrAware(s.prefix), 1))
	}
	// Calls per served request of every replayed call, split into calls a
	// handler waits for (onPath) and work the serving stack does off the
	// request path (async publishes and replica pushes, and the peer
	// handlers they hit). Only on-path shares add up to the coverage;
	// off-path shares are the background CPU those calls take, against the
	// same handler time.
	onPath := map[string]float64{
		"server.json_decode":       1,
		"server.json_encode":       1,
		"core.new":                 coreNews,
		"core.request_warm":        1,
		"obs.request_metrics":      1,
		"stream.demand_scan":       perReq("server.requests.stream"),
		"forest.build_packed":      b,
		"sched.kernel":             b,
		"sched.materialize":        b,
		"audit.check_plan":         b,
		"errormodel.analyze":       perReq("stream.error_aware.selections") * analyzePerSelection,
		"artifact.decode_verified": perReq("server.artifact.disk_promotions") + perReq("server.artifact.remote_builds"),
		"artifact.store_put":       perReq("server.artifact.remote_builds"),
		"artifact.store_get":       perReq("artifact.disk.hits") + perReq("artifact.disk.misses"),
		"wal.append":               perReq("wal.appends"),
	}
	offPath := map[string]float64{
		"artifact.encode":          perReq("artifact.disk.puts") - perReq("server.requests.artifact_put") - perReq("server.artifact.remote_builds"),
		"artifact.decode_verified": perReq("server.requests.artifact_put"),
		"artifact.store_put":       perReq("artifact.disk.puts") - perReq("server.artifact.remote_builds"),
	}

	fmt.Fprintf(out, "\nper-layer attribution (%s, seed %d): handler mean %.1f µs over %d requests; replay of %d requests\n",
		s.w.name, s.o.seed, hmean, len(hs), len(s.prefix))
	fmt.Fprintf(out, "  %-26s %8s %12s %10s %9s %10s %9s\n", "call", "calls", "self µs/call", "calls/req", "share", "off-path/req", "off share")
	names := make([]string, 0, len(calls))
	for k := range calls {
		if k != "layer.request" {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	coverage, background := 0.0, 0.0
	byLayer := map[string]float64{}
	for _, k := range names {
		c := calls[k]
		if compositeCalls[k] {
			fmt.Fprintf(out, "  %-26s %8d %12.2f %10s %9s  (contains other calls; not summed)\n", k, c.n, us(c.mean()), "-", "-")
			continue
		}
		share := us(c.mean()) * onPath[k] / math.Max(hmean, 1e-9)
		off := us(c.mean()) * math.Max(offPath[k], 0) / math.Max(hmean, 1e-9)
		coverage += share
		background += off
		byLayer[layerOf(k)] += share
		fmt.Fprintf(out, "  %-26s %8d %12.2f %10.4f %8.1f%% %10.4f %8.1f%%\n", k, c.n, us(c.mean()), onPath[k], 100*share, math.Max(offPath[k], 0), 100*off)
	}
	// Peer calls are measured on the served traffic itself. Fetch and
	// build-on block a handler; pushes run off the request path.
	for _, k := range []string{"cluster.fetch", "cluster.build_on", "cluster.push"} {
		c := peer[k]
		if c == nil {
			continue
		}
		share := us(c.self) / math.Max(us(hsum), 1e-9)
		if k == "cluster.push" {
			background += share
			fmt.Fprintf(out, "  %-26s %8d %12.2f %10s %9s %10.4f %8.1f%%  (served spans)\n", k, c.n, us(c.mean()), "-", "-", float64(c.n)/n, 100*share)
			continue
		}
		coverage += share
		byLayer["cluster"] += share
		fmt.Fprintf(out, "  %-26s %8d %12.2f %10.4f %8.1f%%  (served spans)\n", k, c.n, us(c.mean()), float64(c.n)/n, 100*share)
	}
	layers := make([]string, 0, len(byLayer))
	for k := range byLayer {
		layers = append(layers, k)
	}
	sort.Strings(layers)
	fmt.Fprint(out, "  by layer:")
	for _, k := range layers {
		fmt.Fprintf(out, " %s %.1f%%", k, 100*byLayer[k])
	}
	fmt.Fprintf(out, "\n  coverage %.1f%% of handler time; unattributed %.1f%%: admission, single-flight, routing, obs metric names, response write and CPU contention between the %d clients and the servers\n",
		100*coverage, 100*(1-coverage), s.d.clients)
	fmt.Fprintf(out, "  off-path work (async publishes, replica pushes) costs %.1f%% of handler time in background CPU\n", 100*background)
	fmt.Fprintf(out, "  tracing overhead: p50 %+.4f ms, throughput %+.1f/s (traced minus untraced half)\n",
		traced.p50-untraced.p50, traced.rps-untraced.rps)

	so := sortedDurs(overhead)
	callUS := func(name string) float64 { return us(calls[name].mean()) }
	callMS := func(name string) float64 { return ms(calls[name].mean()) }
	peerMS := func(name string) float64 { return ms(peer[name].mean()) }
	lookups := math.Max(float64(dl.cache.Lookups), 1)
	ladderDisk := perReq("server.artifact.disk_promotions")
	ladderPeer := perReq("server.artifact.remote_builds")
	// Builds the owners ran for peers are adoptions on the requester's
	// side (ladderPeer); the rest were built on the request path.
	ladderBuild := math.Max(0, b-perReq("server.requests.artifact_build")) * boolf(s.w.clustered())
	peerCalls := 0
	for _, c := range peer {
		peerCalls += c.n
	}
	fill := 0.0
	if s.w.tierCap > 0 {
		fill = float64(s.fill) / float64(s.w.tierCap)
	}
	fsyncs := 0.0
	if a := cnt("wal.appends"); a > 0 {
		fsyncs = cnt("wal.fsyncs") / a
	}
	return map[string]metric{
		"http.client_overhead_ms":         {percentile(so, 0.5), "ms"},
		"server.handler_p50_ms":           {percentile(hs, 0.5), "ms"},
		"server.handler_p99_ms":           {percentile(hs, tailRank(len(hs))), "ms"},
		"server.json_decode_us":           {callUS("server.json_decode"), "us"},
		"server.json_encode_us":           {callUS("server.json_encode"), "us"},
		"server.coalesced_ratio":          {perReq("server.flights.coalesced"), "ratio"},
		"server.admission_queued":         {cnt("server.admission.queued"), "count"},
		"core.new_us":                     {callUS("core.new"), "us"},
		"core.request_us":                 {callUS("core.request"), "us"},
		"core.base_build_us":              {callUS("core.base_build"), "us"},
		"plancache.hit_ratio":             {float64(dl.cache.Hits) / lookups, "ratio"},
		"plancache.builds_per_req":        {b, "count"},
		"plancache.evictions_per_req":     {float64(dl.cache.Evictions) / n, "count"},
		"stream.run_us":                   {callUS("stream.run"), "us"},
		"stream.demand_scan_us":           {callUS("stream.demand_scan"), "us"},
		"forest.build_packed_us":          {callUS("forest.build_packed"), "us"},
		"sched.kernel_us":                 {callUS("sched.kernel"), "us"},
		"sched.materialize_us":            {callUS("sched.materialize"), "us"},
		"audit.check_plan_us":             {callUS("audit.check_plan"), "us"},
		"errormodel.analyze_us":           {callUS("errormodel.analyze"), "us"},
		"artifact.encode_us":              {callUS("artifact.encode"), "us"},
		"artifact.decode_verified_us":     {callUS("artifact.decode_verified"), "us"},
		"artifact.store_put_ms":           {callMS("artifact.store_put"), "ms"},
		"artifact.store_get_ms":           {callMS("artifact.store_get"), "ms"},
		"artifact.store_fill":             {fill, "ratio"},
		"cluster.fetch_ms":                {peerMS("cluster.fetch"), "ms"},
		"cluster.push_ms":                 {peerMS("cluster.push"), "ms"},
		"cluster.build_on_ms":             {peerMS("cluster.build_on"), "ms"},
		"cluster.peer_calls_per_req":      {float64(peerCalls) / n, "count"},
		"cluster.ladder_lru":              {math.Max(0, 1-ladderDisk-ladderPeer-ladderBuild) * boolf(s.w.clustered()), "ratio"},
		"cluster.ladder_disk":             {ladderDisk, "ratio"},
		"cluster.ladder_peer":             {ladderPeer, "ratio"},
		"cluster.ladder_build":            {ladderBuild, "ratio"},
		"cluster.builds_per_distinct_key": {float64(dl.cache.Builds) / math.Max(float64(distinct), 1) * boolf(s.w.clustered()), "count"},
		"wal.append_ms":                   {callMS("wal.append"), "ms"},
		"wal.fsyncs_per_append":           {fsyncs, "count"},
		"wal.bytes_per_batch":             {float64(walBytes) / n * boolf(s.w.wal), "bytes"},
		"gort.alloc_bytes_per_req":        {dl.alloc / n, "bytes"},
		"gort.mallocs_per_req":            {dl.mallocs / n, "count"},
		"gort.gc_cpu_fraction":            {dl.gcFrac, "ratio"},
		"trace.coverage":                  {coverage, "ratio"},
		"trace.overhead_p50_ms":           {traced.p50 - untraced.p50, "ms"},
		"trace.overhead_rps":              {traced.rps - untraced.rps, "1/s"},
	}
}

// layerOf names the module a call belongs to.
func layerOf(call string) string {
	layer, _, _ := strings.Cut(call, ".")
	return layer
}

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func countErrAware(rqs []request) int {
	n := 0
	for _, rq := range rqs {
		if rq.Req.ErrorAware {
			n++
		}
	}
	return n
}
