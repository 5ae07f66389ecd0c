package runtime

import (
	"context"
	"testing"

	"repro/internal/chip"
	"repro/internal/faults"
	"repro/internal/minmix"
	"repro/internal/plancache"
	"repro/internal/ratio"
	"repro/internal/stream"
)

// TestDegradedReplanUsesPlanCache: a degraded replan plans through the cache
// of the stream plan being executed, keyed under the recovery policy, and
// never touches the process-wide default cache.
func TestDegradedReplanUsesPlanCache(t *testing.T) {
	g, err := minmix.Build(ratio.MustParse(pcr))
	if err != nil {
		t.Fatal(err)
	}
	private := plancache.New(64)
	res, err := stream.Run(stream.Config{Base: g, Mixers: 3, Scheduler: stream.SRS, Cache: private}, 20)
	if err != nil {
		t.Fatal(err)
	}
	l, err := chip.AutoLayout(g.Target.N(), 3, res.Passes[0].Storage+4)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(faults.Params{DeadMixers: map[string]int{"M3": 2}})
	if err != nil {
		t.Fatal(err)
	}

	before, privateBefore := plancache.Default().Stats(), private.Stats()
	rep, err := RunStreamCtx(context.Background(), res, l, inj, Policy{})
	if err != nil {
		t.Fatalf("degraded run failed: %v\n%s", err, rep)
	}
	after, privateAfter := plancache.Default().Stats(), private.Stats()
	if rep.Degradations < 1 {
		t.Fatalf("no degraded replan happened: %s", rep)
	}
	if after.Lookups != before.Lookups || after.Builds != before.Builds {
		t.Errorf("plancache.Default() moved: lookups %d -> %d, builds %d -> %d",
			before.Lookups, after.Lookups, before.Builds, after.Builds)
	}
	if privateAfter.Builds == privateBefore.Builds {
		t.Error("the degraded replan did not build through the plan's cache")
	}
	policy := Policy{}.Fingerprint()
	for d := 2; d <= 20; d += 2 {
		for _, scheme := range []string{"MMS", "SRS"} {
			if _, ok := private.Get(plancache.KeyFor(g, d, 2, scheme, policy)); ok {
				return
			}
		}
	}
	t.Error("the plan's cache holds no plan keyed under the recovery policy")
}

// TestNilCacheDegradedReplanLeavesDefaultIdle: Run executes a bare
// schedule, which carries no plan cache, so its degraded replans plan
// uncached and never touch the process-wide default cache.
func TestNilCacheDegradedReplanLeavesDefaultIdle(t *testing.T) {
	g, err := minmix.Build(ratio.MustParse(pcr))
	if err != nil {
		t.Fatal(err)
	}
	res, err := stream.Run(stream.Config{Base: g, Mixers: 3, Scheduler: stream.SRS, Cache: plancache.New(8)}, 20)
	if err != nil {
		t.Fatal(err)
	}
	l, err := chip.AutoLayout(g.Target.N(), 3, res.Passes[0].Storage+4)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(faults.Params{DeadMixers: map[string]int{"M3": 2}})
	if err != nil {
		t.Fatal(err)
	}
	before := plancache.Default().Stats()
	rep, err := Run(res.Passes[0].Plan.Schedule(), l, inj, Policy{})
	if err != nil {
		t.Fatalf("degraded run failed: %v\n%s", err, rep)
	}
	if rep.Degradations < 1 {
		t.Fatalf("no degraded replan happened: %s", rep)
	}
	if after := plancache.Default().Stats(); after != before {
		t.Errorf("plancache.Default() moved: %+v -> %+v", before, after)
	}
}
