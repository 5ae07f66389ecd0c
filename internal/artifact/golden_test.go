package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/plancache"
	"repro/internal/protocols"
	"repro/internal/ratio"
	"repro/internal/stream"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/ir_golden.txt and testdata/frozen/*.art from the current encoder")

const goldenPath = "testdata/ir_golden.txt"

// goldenRatios are the targets the wire fixture covers: PCR16 and Table 2.
func goldenRatios() []protocols.Protocol {
	return append([]protocols.Protocol{protocols.PCR16()}, protocols.Table2()...)
}

// servedPlan builds a plan the way the serving layer does: the packed
// planner and its audit, through stream.BuildPlan.
func servedPlan(t testing.TB, algo core.Algorithm, r ratio.Ratio, demand, mixers int, scheduler string) (plancache.Key, *plancache.Plan) {
	t.Helper()
	g, err := algo.Build(r)
	if err != nil {
		t.Fatalf("%v.Build: %v", algo, err)
	}
	sc, err := stream.ParseScheduler(scheduler)
	if err != nil {
		t.Fatal(err)
	}
	p, err := stream.BuildPlan(stream.Config{Base: g, Mixers: mixers, Scheduler: sc}, demand)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	return plancache.KeyFor(g, demand, mixers, scheduler, plancache.PristinePolicy), p
}

// goldenLines encodes every plan of the fixture's grid and renders one
// "name sha256" line per artifact.
func goldenLines(t *testing.T) []string {
	var lines []string
	for _, proto := range goldenRatios() {
		for _, algo := range []core.Algorithm{core.MM, core.RMA, core.MTCS} {
			for _, scheduler := range []string{"MMS", "SRS"} {
				for _, d := range []int{1, 2, 7, 20, 64} {
					for _, mc := range []int{1, 3, 4} {
						k, p := servedPlan(t, algo, proto.Ratio, d, mc, scheduler)
						data, err := Encode(k, p)
						if err != nil {
							t.Fatalf("%s %v %s D=%d m=%d: Encode: %v", proto.Key, algo, scheduler, d, mc, err)
						}
						sum := sha256.Sum256(data)
						lines = append(lines, fmt.Sprintf("%s/%v/%s/D%d/m%d %s", proto.Key, algo, scheduler, d, mc, hex.EncodeToString(sum[:])))
					}
				}
			}
		}
	}
	return lines
}

// TestIRGolden freezes the DMFBART1 wire: the SHA-256 of every artifact
// Encode writes over PCR16 and Table 2 × MM/RMA/MTCS × MMS/SRS × D ∈ {1, 2,
// 7, 20, 64} × {1, 3, 4} mixers must match testdata/ir_golden.txt.
// Regenerate with -update only for an intended change of the layout (which
// also bumps the magic).
func TestIRGolden(t *testing.T) {
	got := goldenLines(t)
	if *updateGolden {
		out := "# SHA-256 of artifact.Encode per plan. Regenerate with: go test ./internal/artifact -run TestIRGolden -update\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(goldenPath, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/artifact -run TestIRGolden -update to create it)", err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d artifacts encoded, fixture has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("wire changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

// frozenPlans are the plans whose encoded bytes are committed under
// testdata/frozen: artifacts written by an earlier encoder that every later
// decoder must still accept.
var frozenPlans = []struct {
	name      string
	algo      core.Algorithm
	proto     int // index into goldenRatios
	demand    int
	mixers    int
	scheduler string
}{
	{"pcr16-mm-mms-d20-m3", core.MM, 0, 20, 3, "MMS"},
	{"pcr16-rma-srs-d7-m4", core.RMA, 0, 7, 4, "SRS"},
	{"ex1-mm-srs-d64-m4", core.MM, 1, 64, 4, "SRS"},
	{"ex3-mtcs-mms-d1-m1", core.MTCS, 3, 1, 1, "MMS"},
	{"ex5-rma-mms-d20-m1", core.RMA, 5, 20, 1, "MMS"},
}

// TestFrozenArtifactsVerify: every committed artifact decodes, verifies
// and names the plan it was encoded from, and today's encoder writes the
// same bytes for that plan.
func TestFrozenArtifactsVerify(t *testing.T) {
	for _, fp := range frozenPlans {
		path := filepath.Join("testdata", "frozen", fp.name+".art")
		k, p := servedPlan(t, fp.algo, goldenRatios()[fp.proto].Ratio, fp.demand, fp.mixers, fp.scheduler)
		fresh, err := Encode(k, p)
		if err != nil {
			t.Fatal(err)
		}
		if *updateGolden {
			if err := os.WriteFile(path, fresh, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		a, err := DecodeVerified(data)
		if err != nil {
			t.Fatalf("%s: DecodeVerified: %v", fp.name, err)
		}
		if a.Key != k || a.Plan.Cycles != p.Cycles || a.Plan.Storage != p.Storage {
			t.Fatalf("%s: decoded key %+v Tc=%d q=%d, want %+v Tc=%d q=%d", fp.name, a.Key, a.Plan.Cycles, a.Plan.Storage, k, p.Cycles, p.Storage)
		}
		if !bytes.Equal(fresh, data) {
			t.Fatalf("%s: Encode no longer writes the committed bytes", fp.name)
		}
		again, err := Encode(a.Key, a.Plan)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%s: re-encoding the decoded plan differs (err %v)", fp.name, err)
		}
	}
}
