package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/plancache"
)

// procSnap is a point-in-time reading of everything a window is measured
// by: process CPU, Go runtime counters, the obs registry and the plan
// caches of every node.
type procSnap struct {
	cpu      time.Duration
	alloc    uint64
	mallocs  uint64
	gcCPU    float64
	totalCPU float64
	counters map[string]int64
	caches   []plancache.Stats
}

var rtMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// processCPU returns the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeSnap(f *fleet) procSnap {
	s := procSnap{
		cpu:      processCPU(),
		counters: obs.TakeSnapshot().Counters,
	}
	ms := make([]metrics.Sample, len(rtMetrics))
	for i, n := range rtMetrics {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s.alloc, s.mallocs = ms[0].Value.Uint64(), ms[1].Value.Uint64()
	s.gcCPU, s.totalCPU = ms[2].Value.Float64(), ms[3].Value.Float64()
	for _, nd := range f.nodes {
		s.caches = append(s.caches, nd.planCache().Stats())
	}
	return s
}

// delta is the difference between two snapshots.
type delta struct {
	cpu            time.Duration
	alloc, mallocs float64
	gcFrac         float64
	counters       map[string]int64
	cache          plancache.Stats // summed over nodes
}

func diff(a, b procSnap) delta {
	d := delta{
		cpu:      b.cpu - a.cpu,
		alloc:    float64(b.alloc - a.alloc),
		mallocs:  float64(b.mallocs - a.mallocs),
		counters: map[string]int64{},
	}
	if tot := b.totalCPU - a.totalCPU; tot > 0 {
		d.gcFrac = (b.gcCPU - a.gcCPU) / tot
	}
	for k, v := range b.counters {
		if dv := v - a.counters[k]; dv != 0 {
			d.counters[k] = dv
		}
	}
	for i := range b.caches {
		x, y := a.caches[i], b.caches[i]
		d.cache.Lookups += y.Lookups - x.Lookups
		d.cache.Hits += y.Hits - x.Hits
		d.cache.Misses += y.Misses - x.Misses
		d.cache.Puts += y.Puts - x.Puts
		d.cache.Evictions += y.Evictions - x.Evictions
		d.cache.Builds += y.Builds - x.Builds
		d.cache.Size += y.Size
		d.cache.Capacity += y.Capacity
	}
	return d
}

// tailRank is the rank-based percentile used for the tail: p99 when the
// window has at least 1000 samples, otherwise the highest percentile with
// at least ten samples beyond it.
func tailRank(n int) float64 {
	q := 0.99
	if n > 0 && 1-10/float64(n) < q {
		q = math.Max(0.5, 1-10/float64(n))
	}
	return q
}

// percentile returns the nearest-rank q-quantile of sorted durations in ms.
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return ms(sorted[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
