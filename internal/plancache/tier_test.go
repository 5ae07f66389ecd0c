package plancache

import (
	"context"
	"errors"
	"testing"
)

// fakeTier is an in-memory Tier that records every call.
type fakeTier struct {
	plans     map[Key]*Plan
	fetches   []Key
	published []Key
}

func (t *fakeTier) Fetch(_ context.Context, k Key) (*Plan, bool) {
	t.fetches = append(t.fetches, k)
	p, ok := t.plans[k]
	return p, ok
}

func (t *fakeTier) Publish(_ context.Context, k Key, _ *Plan) {
	t.published = append(t.published, k)
}

// TestTierHitPromotesWithoutBuilding: a plan the tier holds is promoted into
// the LRU and served without running build; Builds does not move and the
// plan is not published back.
func TestTierHitPromotesWithoutBuilding(t *testing.T) {
	p := testPlan(t)
	tier := &fakeTier{plans: map[Key]*Plan{key(1): p}}
	c := New(4)
	c.SetTier(tier)
	got, err := c.GetOrBuildCtx(context.Background(), key(1), func() (*Plan, error) {
		t.Fatal("tier hit ran build")
		return nil, nil
	})
	if err != nil || got != p {
		t.Fatalf("GetOrBuildCtx = %v, %v; want the tier's plan", got, err)
	}
	if st := c.Stats(); st.Builds != 0 || st.Puts != 1 || st.Size != 1 {
		t.Fatalf("stats after tier hit = %+v, want 0 builds and 1 promoted entry", st)
	}
	if len(tier.published) != 0 {
		t.Fatalf("tier hit published %v", tier.published)
	}
	// Promoted: the next lookup is an LRU hit that never reaches the tier.
	if _, err := c.GetOrBuildCtx(context.Background(), key(1), nil); err != nil || len(tier.fetches) != 1 {
		t.Fatalf("warm lookup: err %v, %d tier fetches, want 1", err, len(tier.fetches))
	}
}

// TestTierMissBuildsOnceAndPublishesOnce: a key the tier lacks is built
// once, cached, and handed to the tier exactly once.
func TestTierMissBuildsOnceAndPublishesOnce(t *testing.T) {
	tier := &fakeTier{}
	c := New(4)
	c.SetTier(tier)
	builds := 0
	build := func() (*Plan, error) { builds++; return testPlan(t), nil }
	for range 3 {
		if _, err := c.GetOrBuildCtx(context.Background(), key(2), build); err != nil {
			t.Fatal(err)
		}
	}
	if builds != 1 || c.Stats().Builds != 1 {
		t.Fatalf("build ran %d times (Builds %d), want 1", builds, c.Stats().Builds)
	}
	if len(tier.fetches) != 1 || len(tier.published) != 1 || tier.published[0] != key(2) {
		t.Fatalf("tier saw fetches %v, publishes %v; want one of each for %v", tier.fetches, tier.published, key(2))
	}
}

// TestTierFailedBuildPublishesNothing: a build error propagates, caches
// nothing and publishes nothing.
func TestTierFailedBuildPublishesNothing(t *testing.T) {
	tier := &fakeTier{}
	c := New(4)
	c.SetTier(tier)
	boom := errors.New("boom")
	if _, err := c.GetOrBuildCtx(context.Background(), key(3), func() (*Plan, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("build error not propagated: %v", err)
	}
	if len(tier.published) != 0 || c.Stats().Size != 0 {
		t.Fatalf("failed build published %v and cached %d entries", tier.published, c.Stats().Size)
	}
}

// TestTierSkipsNonPristineKeys: a plan keyed under a fault/recovery policy
// (a degraded replan) never reaches the tier, on fetch or on publish.
func TestTierSkipsNonPristineKeys(t *testing.T) {
	k := key(4)
	k.Policy = "recover:th=0.1"
	tier := &fakeTier{plans: map[Key]*Plan{k: testPlan(t)}}
	c := New(4)
	c.SetTier(tier)
	builds := 0
	if _, err := c.GetOrBuildCtx(context.Background(), k, func() (*Plan, error) { builds++; return testPlan(t), nil }); err != nil {
		t.Fatal(err)
	}
	if builds != 1 || len(tier.fetches) != 0 || len(tier.published) != 0 {
		t.Fatalf("non-pristine key: %d builds, tier fetches %v, publishes %v; want a local build only",
			builds, tier.fetches, tier.published)
	}
}

// TestNilTierMatchesUntieredCache: a cache whose tier was removed runs the
// same sequence of hits, misses, failed builds and policy-keyed builds as a
// cache that never had one, snapshot for snapshot.
func TestNilTierMatchesUntieredCache(t *testing.T) {
	p := testPlan(t)
	plain, cleared := New(2), New(2)
	cleared.SetTier(&fakeTier{plans: map[Key]*Plan{key(1): p}})
	cleared.SetTier(nil)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	boom := errors.New("boom")
	degraded := key(9)
	degraded.Policy = "recover"
	steps := []struct {
		k     Key
		build func() (*Plan, error)
	}{
		{key(1), func() (*Plan, error) { return p, nil }},
		{key(1), func() (*Plan, error) { return p, nil }},
		{key(2), func() (*Plan, error) { return nil, boom }},
		{degraded, func() (*Plan, error) { return p, nil }},
		{key(3), func() (*Plan, error) { return p, nil }},
		{key(1), func() (*Plan, error) { return p, nil }},
	}
	for i, step := range steps {
		want, werr := plain.GetOrBuildCtx(context.Background(), step.k, step.build)
		got, gerr := cleared.GetOrBuildCtx(canceled, step.k, step.build)
		if got != want || !errors.Is(gerr, werr) || plain.Stats() != cleared.Stats() {
			t.Fatalf("step %d: got (%p, %v, %+v), want (%p, %v, %+v)",
				i, got, gerr, cleared.Stats(), want, werr, plain.Stats())
		}
	}
}
