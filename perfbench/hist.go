package main

import (
	"math"
	"math/bits"
	"time"
)

// latHist is a log-linear latency histogram of fixed size: values below
// 128ns are exact, and every larger power of two is split into 64 equal
// buckets (under 1.6% wide). Clients record into histograms instead of
// growing sample slices, so the harness's heap — which sets how often the
// collector runs for the servers sharing the process — does not depend on
// how fast the servers were.
type latHist struct {
	counts [histBuckets]uint32
	n      int
}

const (
	histSub     = 64
	histBuckets = 42 * histSub // up to 2^41 ns, over half an hour
)

func histIndex(d time.Duration) int {
	v := uint64(max(d, 0))
	shift := max(bits.Len64(v)-7, 0) // keep a 7-bit mantissa
	idx := shift*histSub + int(v>>shift)
	return min(idx, histBuckets-1)
}

// histBounds returns the value range [lo, hi) of bucket idx.
func histBounds(idx int) (lo, hi float64) {
	shift, mant := 0, idx
	if idx >= 2*histSub {
		shift = idx/histSub - 1
		mant = idx - shift*histSub
	}
	return float64(uint64(mant) << shift), float64(uint64(mant+1) << shift)
}

func (h *latHist) add(d time.Duration) {
	h.counts[histIndex(d)]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile in ms, placed within its
// bucket by rank, or 0 for an empty histogram.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(int(math.Ceil(q*float64(h.n))), 1)
	seen := 0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+int(c) >= rank {
			lo, hi := histBounds(i)
			frac := (float64(rank-seen) - 0.5) / float64(c)
			return (lo + (hi-lo)*frac) / float64(time.Millisecond)
		}
		seen += int(c)
	}
	return 0
}
