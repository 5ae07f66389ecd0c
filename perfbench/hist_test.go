package main

import (
	"math"
	"testing"
	"time"
)

// TestHistogramQuantiles checks the bucket layout is contiguous and that
// quantiles land within a bucket's width of the exact nearest-rank value.
func TestHistogramQuantiles(t *testing.T) {
	for idx := 1; idx < histBuckets; idx++ {
		_, prevHi := histBounds(idx - 1)
		if lo, _ := histBounds(idx); lo != prevHi {
			t.Fatalf("bucket %d starts at %g, previous ends at %g", idx, lo, prevHi)
		}
	}
	var h latHist
	var exact []time.Duration
	for i := 1; i <= 20000; i++ {
		d := time.Duration(i*i) * time.Nanosecond
		h.add(d)
		exact = append(exact, d)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := ms(exact[int(math.Ceil(q*float64(len(exact))))-1])
		if got := h.quantile(q); math.Abs(got-want) > 0.02*want {
			t.Errorf("q%g = %g ms, want %g ms", q, got, want)
		}
	}
}
