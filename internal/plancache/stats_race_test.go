package plancache

import (
	"context"
	"sync"
	"testing"
)

// TestStatsRaceConsistency hammers one cache from concurrent readers,
// writers and snapshotters and asserts the counter invariant the in-lock
// accounting guarantees: every Stats snapshot — including ones taken in the
// middle of the storm — satisfies lookups == hits + misses exactly. The old
// accounting (atomics bumped after the mutex was released) could be caught
// between a lookup and its outcome; run under -race this test also proves
// the counters themselves are data-race free.
func TestStatsRaceConsistency(t *testing.T) {
	c := New(16)
	p := testPlan(t)

	const (
		workers = 8
		iters   = 2000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Concurrent snapshotters: every observed snapshot must balance.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := c.Stats()
				if st.Lookups != st.Hits+st.Misses || st.Scans > st.Capacity {
					t.Errorf("mid-storm snapshot unbalanced: lookups %d != hits %d + misses %d, or %d scans past capacity %d",
						st.Lookups, st.Hits, st.Misses, st.Scans, st.Capacity)
					return
				}
			}
		}()
	}

	var work sync.WaitGroup
	for w := 0; w < workers; w++ {
		work.Add(1)
		go func(w int) {
			defer work.Done()
			for i := 0; i < iters; i++ {
				k := key((w*31 + i) % 48)
				switch i % 3 {
				case 0:
					c.Get(k)
				case 1:
					c.Put(k, p)
				default:
					if _, err := c.GetOrBuildCtx(context.Background(), k, func() (*Plan, error) { return p, nil }); err != nil {
						t.Error(err)
						return
					}
				}
				// The scan table shares the lock with the plans.
				if _, err := c.Scan(ScanKey{Limit: i % 40}, func() (int, error) { return i % 40, nil }); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	work.Wait()
	close(stop)
	wg.Wait()

	st := c.Stats()
	if st.Lookups != st.Hits+st.Misses {
		t.Fatalf("final snapshot unbalanced: lookups %d != hits %d + misses %d",
			st.Lookups, st.Hits, st.Misses)
	}
	// Get contributes one lookup per call; GetOrBuildCtx one (hit) or two
	// (miss: the failed Get, then Put — Put is not a lookup). The exact
	// total is scheduling-dependent, but it is bounded below by the pure
	// Get volume.
	if minLookups := int64(workers * iters / 3); st.Lookups < minLookups {
		t.Fatalf("lookups %d below the guaranteed floor %d", st.Lookups, minLookups)
	}
}
