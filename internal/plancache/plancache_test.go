package plancache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/mtcs"
	"repro/internal/ratio"
	"repro/internal/sched"
)

func key(i int) Key {
	return Key{Algo: "MM", Ratio: fmt.Sprintf("r%d", i), Demand: i, Mixers: 3, Scheduler: "SRS"}
}

func testPlan(t *testing.T) *Plan {
	t.Helper()
	g, err := minmix.Build(ratio.MustParse("2:1:1:1:1:1:9"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := forest.Build(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.SRS(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	return NewPlan(f, s)
}

func TestGetPutAndStats(t *testing.T) {
	c := New(8)
	p := testPlan(t)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key(1), p)
	got, ok := c.Get(key(1))
	if !ok || got != p {
		t.Fatal("Put/Get roundtrip failed")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Size != 1 || st.Capacity != 8 {
		t.Errorf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", st.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(3)
	p := testPlan(t)
	for i := 0; i < 3; i++ {
		c.Put(key(i), p)
	}
	// Touch key 0 so key 1 becomes the LRU victim.
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("key 0 missing")
	}
	c.Put(key(3), p)
	if _, ok := c.Get(key(1)); ok {
		t.Error("LRU entry 1 survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := c.Get(key(i)); !ok {
			t.Errorf("entry %d evicted unexpectedly", i)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Size != 3 {
		t.Errorf("stats = %+v, want 1 eviction at size 3", st)
	}
}

func TestPurgeAndResetStats(t *testing.T) {
	c := New(4)
	c.Put(key(1), testPlan(t))
	c.Purge()
	if c.Stats().Size != 0 {
		t.Errorf("len after purge = %d", c.Stats().Size)
	}
	if _, ok := c.Get(key(1)); ok {
		t.Error("hit after purge")
	}
	c.ResetStats()
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Puts != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
}

func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *Cache
	if _, ok := c.Get(key(1)); ok {
		t.Error("nil cache hit")
	}
	c.Put(key(1), testPlan(t)) // must not panic
	c.Purge()
	c.ResetStats()
	if c.Stats().Size != 0 || c.Stats() != (Stats{}) {
		t.Error("nil cache not empty")
	}
	p, err := c.GetOrBuildCtx(context.Background(), key(1), func() (*Plan, error) { return testPlan(t), nil })
	if err != nil || p == nil {
		t.Errorf("nil cache GetOrBuildCtx: %v, %v", p, err)
	}
}

func TestGetOrBuild(t *testing.T) {
	c := New(4)
	builds := 0
	build := func() (*Plan, error) { builds++; return testPlan(t), nil }
	p1, err := c.GetOrBuildCtx(context.Background(), key(1), build)
	if err != nil || p1 == nil {
		t.Fatalf("GetOrBuildCtx: %v", err)
	}
	p2, err := c.GetOrBuildCtx(context.Background(), key(1), build)
	if err != nil || p2 != p1 {
		t.Fatalf("second GetOrBuildCtx rebuilt: %v", err)
	}
	if builds != 1 {
		t.Errorf("build ran %d times, want 1", builds)
	}
	boom := errors.New("boom")
	if _, err := c.GetOrBuildCtx(context.Background(), key(2), func() (*Plan, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Errorf("build error not propagated: %v", err)
	}
	if _, ok := c.Get(key(2)); ok {
		t.Error("failed build cached")
	}
}

func TestKeyForAndFingerprint(t *testing.T) {
	r := ratio.MustParse("2:1:1:1:1:1:9")
	mm1, err := minmix.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	mm2, err := minmix.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	if mm1.Fingerprint() != mm2.Fingerprint() {
		t.Error("deterministic builder produced different fingerprints")
	}
	k := KeyFor(mm1, 32, 3, "SRS", PristinePolicy)
	if k != (Key{Algo: "MM", Ratio: "2:1:1:1:1:1:9", Graph: mm1.Fingerprint(), Demand: 32, Mixers: 3, Scheduler: "SRS"}) {
		t.Errorf("KeyFor = %+v", k)
	}
	// A structurally different graph over the same ratio must not collide.
	mt, err := mtcs.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Fingerprint() == mm1.Fingerprint() {
		t.Error("MTCS and MM graphs share a fingerprint")
	}
}

// TestPolicyKeysAreDisjoint pins the fault/recovery policy dimension of the
// cache key: a plan built while recovering on a degraded chip must never be
// served for a pristine-chip request, and vice versa.
func TestPolicyKeysAreDisjoint(t *testing.T) {
	c := New(8)
	r := ratio.MustParse("2:1:1:1:1:1:9")
	g, err := minmix.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	degraded := KeyFor(g, 20, 2, "SRS", "recover:th=0.05,cf=0.015625,retries=3")
	pristine := KeyFor(g, 20, 2, "SRS", PristinePolicy)
	if degraded == pristine {
		t.Fatal("degraded and pristine keys collide")
	}
	c.Put(degraded, testPlan(t))
	if _, ok := c.Get(pristine); ok {
		t.Error("recovered-degraded plan served for a pristine-chip request")
	}
	c.Put(pristine, testPlan(t))
	dp, ok1 := c.Get(degraded)
	pp, ok2 := c.Get(pristine)
	if !ok1 || !ok2 || dp == pp {
		t.Error("policy-keyed entries not independent")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(32)
	p := testPlan(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := key((w*17 + i) % 64)
				if got, ok := c.Get(k); ok && got == nil {
					t.Error("nil plan from hit")
					return
				}
				c.Put(k, p)
				if _, err := c.GetOrBuildCtx(context.Background(), key(i%16), func() (*Plan, error) { return p, nil }); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Stats().Size > 32 {
		t.Errorf("cache overflowed its bound: %d entries", c.Stats().Size)
	}
}

// TestScanTable: Scan memoises a successful scan and nothing else, a nil
// cache runs every scan, Purge empties scans with plans, PurgeScans keeps
// the plans, and the table holds at most the cache's capacity of scans.
func TestScanTable(t *testing.T) {
	runs := 0
	scan := func(d int, err error) func() (int, error) {
		return func() (int, error) { runs++; return d, err }
	}
	k := ScanKey{Graph: 1, Ratio: "1:3", Mixers: 2, Storage: 4, Limit: 64, Scheduler: "SRS"}

	var nilCache *Cache
	for i := 0; i < 2; i++ {
		if d, err := nilCache.Scan(k, scan(10, nil)); d != 10 || err != nil {
			t.Fatalf("nil cache Scan = %d, %v", d, err)
		}
	}
	if runs != 2 {
		t.Fatalf("nil cache ran %d scans, want 2", runs)
	}

	c := New(2)
	boom := errors.New("boom")
	if _, err := c.Scan(k, scan(0, boom)); !errors.Is(err, boom) || c.Stats().Scans != 0 {
		t.Fatalf("failed scan: err %v, %d scans memoised", err, c.Stats().Scans)
	}
	runs = 0
	for i := 0; i < 3; i++ {
		if d, err := c.Scan(k, scan(12, nil)); d != 12 || err != nil {
			t.Fatalf("Scan = %d, %v", d, err)
		}
	}
	if runs != 1 {
		t.Fatalf("ran %d scans for one key, want 1", runs)
	}
	c.Put(key(1), testPlan(t))
	c.PurgeScans()
	if st := c.Stats(); st.Scans != 0 || st.Size != 1 {
		t.Fatalf("after PurgeScans: %d scans, %d plans; want 0 and 1", st.Scans, st.Size)
	}
	for limit := 1; limit <= 5; limit++ {
		k.Limit = limit
		c.Scan(k, scan(limit, nil))
	}
	if n := c.Stats().Scans; n != 2 {
		t.Fatalf("%d scans memoised, want the capacity 2", n)
	}
	c.Purge()
	if st := c.Stats(); st.Scans != 0 || st.Size != 0 {
		t.Fatalf("after Purge: %d scans, %d plans; want none", st.Scans, st.Size)
	}
}
