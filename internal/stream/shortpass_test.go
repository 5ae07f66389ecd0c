package stream

import (
	"fmt"
	"strconv"
	"strings"
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

// TestStorageNotMonotoneInDemand pins why the D' scan never stops at the
// first demand that overflows storage: S(d), the peak storage of one pass
// of d targets, can fall again as d grows. From the fixture's S(d) rows it
// derives, for every graph x scheduler at Mlb mixers and q' = 1..12, both
// the largest fitting demand <= 128 and the last fitting demand before the
// first overflow. They differ in exactly five cases, all SRS at Mlb = 3;
// MaxSinglePassDemand must return the largest fitting demand everywhere.
func TestStorageNotMonotoneInDemand(t *testing.T) {
	graphs := map[string]*mixgraph.Graph{}
	for _, gg := range goldenGraphs(t) {
		graphs[gg.label] = gg.g
	}
	want := map[string]bool{
		"MM/57:28:6:6:6:3:150 SRS mc=3 q'=11":   true,
		"MM/57:28:6:6:6:3:150 SRS mc=3 q'=12":   true,
		"MTCS/57:28:6:6:6:3:150 SRS mc=3 q'=11": true,
		"MTCS/57:28:6:6:6:3:150 SRS mc=3 q'=12": true,
		"MTCS/26:21:2:2:3:3:199 SRS mc=3 q'=7":  true,
	}
	vals, order := readGolden(t)
	rows := 0
	for _, key := range order {
		var label, scheme string
		var mc int
		if _, err := fmt.Sscanf(key, "storage %s %s mc=%d", &label, &scheme, &mc); err != nil {
			continue
		}
		rows++
		cfg := Config{Base: graphs[label], Mixers: mc, Scheduler: MMS}
		if scheme == "SRS" {
			cfg.Scheduler = SRS
		}
		if cfg.Base == nil {
			t.Fatalf("%s: unknown graph %q", key, label)
		}
		var s []int // s[d] = S(d)
		s = append(s, 0, 0)
		for _, f := range strings.Split(strings.TrimPrefix(vals[key], "S="), ",") {
			v, err := strconv.Atoi(f)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			s = append(s, v)
		}
		for q := 1; q <= 12; q++ {
			largest, firstStop, overflowed := 0, 0, false
			for d := 2; d < len(s); d += 2 {
				switch {
				case s[d] > q:
					overflowed = true
				case !overflowed:
					firstStop, largest = d, d
				default:
					largest = d
				}
			}
			name := fmt.Sprintf("%s %s mc=%d q'=%d", label, scheme, mc, q)
			if differs := largest != firstStop; differs != want[name] {
				t.Errorf("%s: largest fitting D'=%d, first-overflow stop D'=%d; expected differ=%t", name, largest, firstStop, want[name])
			}
			cfg.Storage = q
			if got, err := MaxSinglePassDemand(cfg, len(s)-1); err != nil || got != largest {
				t.Errorf("%s: MaxSinglePassDemand = %d (err %v), fixture says %d", name, got, err, largest)
			}
		}
	}
	if rows != 36 {
		t.Fatalf("%d storage rows in the fixture, want 36 (18 graphs x 2 schedulers)", rows)
	}
}
