package core

import (
	"math/rand"
	"testing"

	"repro/internal/errormodel"
	"repro/internal/minmix"
	"repro/internal/protocols"
	"repro/internal/ratio"
	"repro/internal/sched"
	"repro/internal/synth"
)

// checkPaperMixers fails t unless PaperMixers(r), the closed form over the
// ratio's bits, equals sched.Mlb of r's built MM tree, the Hu-schedule
// search it replaced.
func checkPaperMixers(t *testing.T, r ratio.Ratio) {
	t.Helper()
	mm, err := minmix.Build(r)
	if err != nil {
		t.Fatalf("minmix.Build(%v): %v", r, err)
	}
	got, err := PaperMixers(r)
	if err != nil {
		t.Fatalf("PaperMixers(%v): %v", r, err)
	}
	if want := sched.Mlb(mm); got != want {
		t.Fatalf("PaperMixers(%v) = %d, sched.Mlb of its MM tree = %d", r, got, want)
	}
}

// TestPaperMixersClosedForm checks the closed form against the graph-form
// search on every PaperDataset ratio, the Table 2 protocols and PCR16, and
// that a ratio needing no mixing fails as minmix.Build does.
func TestPaperMixersClosedForm(t *testing.T) {
	rs := append(synth.PaperDataset(), protocols.PCR16().Ratio)
	for _, p := range protocols.Table2() {
		rs = append(rs, p.Ratio)
	}
	for _, r := range rs {
		checkPaperMixers(t, r)
	}
	for _, s := range []string{"1", "4", "256"} {
		r := ratio.MustParse(s)
		_, err := PaperMixers(r)
		_, want := minmix.Build(r)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("PaperMixers(%s) error %v, want %v", s, err, want)
		}
	}
}

// FuzzPaperMixers checks the closed form on random 2..10-part ratios with
// sums 2^1..2^10, each also scaled by 2^scale so that normalisation is
// exercised: scaling a ratio changes neither its MM tree nor its count.
func FuzzPaperMixers(f *testing.F) {
	f.Add(uint8(7), uint8(4), uint8(0), int64(1))
	f.Add(uint8(3), uint8(8), uint8(2), int64(7))
	f.Add(uint8(10), uint8(10), uint8(5), int64(42))
	f.Fuzz(func(t *testing.T, n, depth, scale uint8, seed int64) {
		parts := make([]int64, 2+int(n)%9)
		d := 1 + int(depth)%10
		for 1<<d < len(parts) {
			d++
		}
		for i := range parts {
			parts[i] = 1
		}
		rng := rand.New(rand.NewSource(seed))
		for rest := 1<<d - len(parts); rest > 0; rest-- {
			parts[rng.Intn(len(parts))]++
		}
		r := ratio.MustNew(parts...)
		checkPaperMixers(t, r)
		for i := range parts {
			parts[i] <<= scale % 6
		}
		want, _ := PaperMixers(r)
		if got, err := PaperMixers(ratio.MustNew(parts...)); err != nil || got != want {
			t.Fatalf("PaperMixers(%v scaled by 2^%d) = %d, %v; want %d", r, scale%6, got, err, want)
		}
	})
}

// coldSetupTargets are the engine-setup benchmark's targets: PCR16 and the
// five Table 2 protocols.
func coldSetupTargets() []ratio.Ratio {
	rs := []ratio.Ratio{protocols.PCR16().Ratio}
	for _, p := range protocols.Table2() {
		rs = append(rs, p.Ratio)
	}
	return rs
}

// coldSetupConfigs are the engine configurations the cold path serves: one
// per paper algorithm at the paper's mixer count, and an error-aware one,
// which builds every paper algorithm's graph as a candidate.
var coldSetupConfigs = []struct {
	name string
	cfg  Config
}{
	{"MM", Config{Algorithm: MM}},
	{"RMA", Config{Algorithm: RMA}},
	{"MTCS", Config{Algorithm: MTCS}},
	{"error-aware", Config{ErrorPolicy: &errormodel.Policy{Params: errormodel.Params{SplitImbalance: 0.05}}}},
}

// coldSetup constructs an engine for cfg on every target, each on an empty
// base-graph cache.
func coldSetup(tb testing.TB, cfg Config, targets []ratio.Ratio) {
	for _, r := range targets {
		purgeBaseCaches()
		cfg.Target = r
		if _, err := New(cfg); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkColdEngineSetup times the engine-setup stage of a cold plan
// request: core.New on an empty base-graph cache, so each op builds the
// base graph (all three paper graphs when error-aware) and resolves the
// paper's mixer count, for PCR16 and the five Table 2 protocols. One op is
// six engines; the cache purges are inside the timed loop.
//
//	go test ./internal/core -run '^$' -bench ColdEngineSetup -benchmem
func BenchmarkColdEngineSetup(b *testing.B) {
	targets := coldSetupTargets()
	for _, c := range coldSetupConfigs {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				coldSetup(b, c.cfg, targets)
			}
		})
	}
}

// TestColdEngineSetupAllocs pins the allocation count of cold engine setup
// over every configuration and target of BenchmarkColdEngineSetup. Building
// each base graph into exact-size slabs and computing the mixer count from
// the ratio's bits brought it from 11285 to 1029 objects; keying the
// base-graph cache on the ratio's stored colon form brought it to 721;
// pooling the scratch of Validate and mtcs.Build, and allocating the
// persistent pool's state only under PersistPool, brought it to 376;
// building each graph's nodes into one pointer-free array from a pooled
// append buffer, with no per-node pointer index, brought it to 300. The
// race detector's sync.Pool drops a random share of Puts, so a pooled
// Validate buffer is reallocated at random there and the pin is skipped.
func TestColdEngineSetupAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts vary under the race detector")
	}
	targets := coldSetupTargets()
	allocs := testing.AllocsPerRun(20, func() {
		for _, c := range coldSetupConfigs {
			coldSetup(t, c.cfg, targets)
		}
	})
	if allocs > 300 {
		t.Fatalf("cold engine setup allocates %.0f objects, want <= 300", allocs)
	}
}
