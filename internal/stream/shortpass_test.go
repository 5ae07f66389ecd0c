package stream

import (
	"testing"

	"repro/internal/minmix"
	"repro/internal/mixgraph"
	"repro/internal/mtcs"
	"repro/internal/ratio"
	"repro/internal/rma"
	"repro/internal/sched"
)

// TestShortPassFitsStorage: storage use is not monotone in demand, so the
// final, shorter pass of a storage-limited plan can need more units than a
// full pass of D'. On these specs the largest fitting D' leaves a short
// pass over q' (10:6:6:5:1:1:1:1:1 RMA, q'=8, D=114: D'=20 and the last
// pass of 14 targets needs 11 units); the planner must lower D' until every
// pass fits, keeping ⌈D/D'⌉ passes and 2⌈D/2⌉ emitted droplets.
func TestShortPassFitsStorage(t *testing.T) {
	cases := []struct {
		ratio   string
		build   func(ratio.Ratio) (*mixgraph.Graph, error)
		storage int
		demand  int
	}{
		{"10:6:6:5:1:1:1:1:1", rma.Build, 8, 114},
		{"18:6:2:2:1:1:1:1", rma.Build, 8, 106},
		{"9:5:5:5:4:2:1:1", mtcs.Build, 6, 64},
		{"6:5:5:5:4:4:2:1", mtcs.Build, 6, 87},
	}
	for _, c := range cases {
		target := ratio.MustParse(c.ratio)
		base, err := c.build(target)
		if err != nil {
			t.Fatal(err)
		}
		mm, err := minmix.Build(target)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Base: base, Mixers: sched.Mlb(mm), Storage: c.storage, Scheduler: SRS}
		res, err := Run(cfg, c.demand)
		if err != nil {
			t.Fatalf("%s q'=%d D=%d: %v", c.ratio, c.storage, c.demand, err)
		}
		for k, p := range res.Passes {
			if p.Storage > c.storage {
				t.Errorf("%s q'=%d D=%d (D'=%d): pass %d of %d targets uses %d storage units",
					c.ratio, c.storage, c.demand, res.PerPassDemand, k+1, p.Demand, p.Storage)
			}
		}
		if want := (c.demand + res.PerPassDemand - 1) / res.PerPassDemand; len(res.Passes) != want {
			t.Errorf("%s: %d passes, want ⌈D/D'⌉ = %d", c.ratio, len(res.Passes), want)
		}
		if want := c.demand + c.demand%2; res.Emitted != want {
			t.Errorf("%s: emitted %d, want %d", c.ratio, res.Emitted, want)
		}
	}
}
