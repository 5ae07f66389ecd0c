package stream

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/forest"
	"repro/internal/minmix"
	"repro/internal/mixgraph"
	"repro/internal/mtcs"
	"repro/internal/protocols"
	"repro/internal/ratio"
	"repro/internal/rma"
	"repro/internal/sched"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata fixtures of the tests run from the current planner")

const goldenPath = "testdata/planner_golden.txt"

// Fixture coverage. Every row is one case; its key names the case, so a
// mismatch says exactly which plan drifted.
var (
	goldenDemands  = []int{1, 2, 3, 4, 5, 7, 8, 16, 20, 31, 33, 64}
	goldenMixers   = []int{1, 2, 3, 4, 7}
	goldenOMSMix   = []int{1, 2, 3, 5}
	goldenWindowMc = []int{1, 3, 4}
	goldenBatches  = []int{3, 5, 2, 8, 1, 7}
	goldenMultiD   = [][2]int{{5, 8}, {16, 3}, {20, 20}}
	goldenMultiMc  = []int{2, 4}
	goldenSchemes  = []Scheduler{MMS, SRS}
)

// storageScanMax is the largest demand of the S(d) rows: d = 2..128.
const storageScanMax = 128

type goldenGraph struct {
	label string // "MM/2:1:1:1:1:1:9"
	g     *mixgraph.Graph
}

// goldenGraphs returns the 18 protocol graphs: PCR16 and the five Table 2
// mixtures, each under MM, RMA and MTCS.
func goldenGraphs(t testing.TB) []goldenGraph {
	t.Helper()
	ratios := []ratio.Ratio{protocols.PCR16().Ratio}
	for _, p := range protocols.Table2() {
		ratios = append(ratios, p.Ratio)
	}
	var out []goldenGraph
	for _, r := range ratios {
		for _, alg := range goldenAlgorithms {
			g, err := alg.build(r)
			if err != nil {
				t.Fatalf("%s(%v): %v", alg.name, r, err)
			}
			out = append(out, goldenGraph{alg.name + "/" + r.String(), g})
		}
	}
	return out
}

var goldenAlgorithms = []struct {
	name  string
	build func(ratio.Ratio) (*mixgraph.Graph, error)
}{{"MM", minmix.Build}, {"RMA", rma.Build}, {"MTCS", mtcs.Build}}

// forestDigest hashes every structural field of a forest: per task its
// tree, base node, level, targets, output vector, inputs and consumers, and
// per tree its index, root, span and wanted vector.
func forestDigest(f *forest.Forest) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "D%d;", f.Demand)
	for i, t := range f.Tasks {
		fmt.Fprintf(h, "t%d/%d/%d/%d/%d/%s", i, t.ID, t.Tree, t.Base.ID, t.Level, t.Vec.Key())
		fmt.Fprintf(h, "/%d", t.Targets)
		for _, in := range t.In {
			if in.Kind == forest.Input {
				fmt.Fprintf(h, "/i%d", in.Fluid)
			} else {
				fmt.Fprintf(h, "/f%d:%t", in.Task.ID, in.Reused)
			}
		}
		for _, c := range t.Consumers() {
			fmt.Fprintf(h, "/c%d", c.ID)
		}
		h.Write([]byte{';'})
	}
	for _, tree := range f.Trees {
		fmt.Fprintf(h, "T%d/%d/%d/%d/%s;", tree.Index, tree.Root.ID, tree.Tasks[0].ID, len(tree.Tasks), tree.Want.Key())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// slotsDigest hashes a slot table (cycle and mixer of every task).
func slotsDigest(slots []sched.Assignment) string {
	h := fnv.New64a()
	for _, a := range slots {
		fmt.Fprintf(h, "%d,%d;", a.Cycle, a.Mixer)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func statsValue(st forest.Stats) string {
	in := make([]string, len(st.Inputs))
	for i, v := range st.Inputs {
		in[i] = strconv.FormatInt(v, 10)
	}
	return fmt.Sprintf("trees=%d mixes=%d waste=%d inputs=%d reuses=%d targets=%d I=%s",
		st.Trees, st.Mixes, st.Waste, st.InputTotal, st.Reuses, st.Targets, strings.Join(in, ","))
}

func forestValue(f *forest.Forest, st forest.Stats) string {
	return "forest=" + forestDigest(f) + " " + statsValue(st)
}

func scheduleValue(cycles, storage int, slots []sched.Assignment) string {
	return fmt.Sprintf("Tc=%d q=%d slots=%s", cycles, storage, slotsDigest(slots))
}

// windowSlots pads the slots of a window starting at task first with the
// zero assignment of every earlier task: the form the fixtures were frozen
// in, when a window's slot table spanned the whole forest.
func windowSlots(first int, slots []sched.Assignment) []sched.Assignment {
	return append(make([]sched.Assignment, first), slots...)
}

// goldenRow is one fixture case. api computes it through the pointer-forest
// entry points (forest.Build, forest.BuildMulti, sched.MMS, sched.SRS,
// sched.OMS; windows on forest.Pack of a built forest; persistent batches on
// forest.Pack of the one-shot build of every tree so far); kernel computes
// it on forest.PackedBuilder and sched.Kernel directly, the way dmfbd and
// core's PersistPool engine plan. Both must agree with each other and with
// the frozen fixture.
type goldenRow struct {
	key         string
	api, kernel func() (string, error)
}

// plannerRows enumerates every fixture case in file order.
func plannerRows(t testing.TB) []goldenRow {
	t.Helper()
	graphs := goldenGraphs(t)
	var rows []goldenRow
	add := func(key string, api, kernel func() (string, error)) {
		rows = append(rows, goldenRow{key, api, kernel})
	}
	var pb forest.PackedBuilder
	var k sched.Kernel

	for _, gg := range graphs {
		g := gg.g
		for _, d := range goldenDemands {
			add(fmt.Sprintf("forest %s D=%d", gg.label, d), func() (string, error) {
				f, err := forest.Build(g, d)
				if err != nil {
					return "", err
				}
				return forestValue(f, f.Stats()), nil
			}, func() (string, error) {
				pf, err := forest.BuildPacked(&pb, g, d)
				if err != nil {
					return "", err
				}
				return forestValue(pf.Materialize(), pf.PackedStats(0, make([]int64, g.Target.N()))), nil
			})
			for _, scheme := range goldenSchemes {
				for _, mc := range goldenMixers {
					add(fmt.Sprintf("plan %s D=%d %s mc=%d", gg.label, d, scheme, mc), func() (string, error) {
						f, err := forest.Build(g, d)
						if err != nil {
							return "", err
						}
						s, err := scheme.Schedule(f, mc)
						if err != nil {
							return "", err
						}
						return scheduleValue(s.Cycles, sched.StorageUnits(s), s.Slots), nil
					}, func() (string, error) {
						p, err := BuildPlan(Config{Base: g, Mixers: mc, Scheduler: scheme}, d)
						if err != nil {
							return "", err
						}
						return scheduleValue(p.Cycles, p.Storage, p.Slots()), nil
					})
				}
			}
		}
	}

	for _, gg := range graphs {
		g := gg.g
		for _, mc := range goldenOMSMix {
			add(fmt.Sprintf("oms %s mc=%d", gg.label, mc), func() (string, error) {
				s, err := sched.OMS(g, mc)
				if err != nil {
					return "", err
				}
				return scheduleValue(s.Cycles, sched.StorageUnits(s), s.Slots), nil
			}, func() (string, error) {
				pf, err := forest.BuildPacked(&pb, g, 2)
				if err != nil {
					return "", err
				}
				if err := k.Hu(pf, mc); err != nil {
					return "", err
				}
				return scheduleValue(k.Cycles(), sched.StorageUnits(k.Materialize(pf.Materialize())), k.Assignments()), nil
			})
		}
		add("mlb "+gg.label, func() (string, error) {
			// The definition: the fewest mixers whose OMS schedule finishes
			// in the critical-path time, searched from one mixer up.
			cp, upper := g.Root.Level, 1
			for _, w := range g.LevelWidths() {
				upper = max(upper, w)
			}
			for mc := 1; mc < upper; mc++ {
				if s, err := sched.OMS(g, mc); err == nil && s.Cycles == cp {
					return strconv.Itoa(mc), nil
				}
			}
			return strconv.Itoa(upper), nil
		}, func() (string, error) {
			return strconv.Itoa(sched.Mlb(g)), nil
		})
	}

	const windowDemand = 20
	for _, gg := range graphs {
		g := gg.g
		f, err := forest.Build(g, windowDemand)
		if err != nil {
			t.Fatal(err)
		}
		n := len(f.Tasks)
		for _, first := range []int{0, 1, 7, n / 2, n - 1, n} {
			for _, scheme := range goldenSchemes {
				for _, mc := range goldenWindowMc {
					add(fmt.Sprintf("window %s D=%d %s mc=%d first=%d", gg.label, windowDemand, scheme, mc, first), func() (string, error) {
						f, err := forest.Build(g, windowDemand)
						if err != nil {
							return "", err
						}
						pf, err := forest.Pack(f)
						if err != nil {
							return "", err
						}
						var wk sched.Kernel
						from := wk.MMSFrom
						if scheme == SRS {
							from = wk.SRSFrom
						}
						if err := from(pf, mc, first); err != nil {
							return "", err
						}
						s := wk.Materialize(f)
						return scheduleValue(s.Cycles, sched.StorageUnits(s), windowSlots(first, s.Slots)), nil
					}, func() (string, error) {
						pf, err := forest.BuildPacked(&pb, g, windowDemand)
						if err != nil {
							return "", err
						}
						from := k.MMSFrom
						if scheme == SRS {
							from = k.SRSFrom
						}
						if err := from(pf, mc, first); err != nil {
							return "", err
						}
						return scheduleValue(k.Cycles(), sched.StorageUnits(k.Materialize(pf.Materialize())), windowSlots(first, k.Assignments())), nil
					})
				}
			}
		}
	}

	// Persistent-engine batch sequences: one forest grows across batches
	// and every batch schedules only its own window, as core's PersistPool
	// engine does. Each step's rows run after the previous step's, against
	// builders that persist across the sequence.
	for _, gg := range graphs {
		g := gg.g
		for _, scheme := range goldenSchemes {
			const mc = 3
			var lf *forest.Forest
			var lk sched.Kernel
			var ppb forest.PackedBuilder
			var pk sched.Kernel
			for step, batch := range goldenBatches {
				add(fmt.Sprintf("persist %s %s mc=%d step=%d n=%d", gg.label, scheme, mc, step, batch), func() (string, error) {
					// The pool adds trees one at a time, so after a step
					// the forest is the one-shot build of every tree so
					// far, and its pool holds its waste.
					if step == 0 {
						lf = &forest.Forest{Base: g}
					}
					start := len(lf.Tasks)
					f, err := forest.Build(g, 2*(len(lf.Trees)+(batch+1)/2))
					if err != nil {
						return "", err
					}
					pf, err := forest.Pack(f)
					if err != nil {
						return "", err
					}
					from := lk.MMSFrom
					if scheme == SRS {
						from = lk.SRSFrom
					}
					if err := from(pf, mc, start); err != nil {
						return "", err
					}
					lf = f
					s := lk.Materialize(f)
					st := f.Stats()
					return fmt.Sprintf("%s pool=%d first=%d %s", forestValue(f, st), st.Waste, start,
						scheduleValue(s.Cycles, sched.StorageUnits(s), windowSlots(start, s.Slots))), nil
				}, func() (string, error) {
					if step == 0 {
						ppb.Reset(g)
					}
					start := len(ppb.Forest().Tasks)
					for i := 0; i < (batch+1)/2; i++ {
						ppb.AddTree()
					}
					pf := ppb.Forest()
					from := pk.MMSFrom
					if scheme == SRS {
						from = pk.SRSFrom
					}
					if err := from(pf, mc, start); err != nil {
						return "", err
					}
					f := pf.Materialize()
					return fmt.Sprintf("%s pool=%d first=%d %s", forestValue(f, pf.PackedStats(0, make([]int64, g.Target.N()))), ppb.PoolSize(), start,
						scheduleValue(pk.Cycles(), sched.StorageUnits(pk.Materialize(f)), windowSlots(start, pk.Assignments()))), nil
				})
			}
		}
	}

	// BuildMulti pairs: every two protocol graphs of one algorithm over the
	// same fluid set.
	for i, a := range graphs {
		for _, b := range graphs[i+1:] {
			if a.g.Algorithm != b.g.Algorithm || a.g.Target.N() != b.g.Target.N() {
				continue
			}
			bases := []*mixgraph.Graph{a.g, b.g}
			for _, dd := range goldenMultiD {
				demands := []int{dd[0], dd[1]}
				label := fmt.Sprintf("multi %s+%s D=%d,%d", a.label, b.label, dd[0], dd[1])
				add(label, func() (string, error) {
					f, err := forest.BuildMulti(bases, demands)
					if err != nil {
						return "", err
					}
					return fmt.Sprintf("%s emitted=%v", forestValue(f, f.Stats()), forest.TargetsOf(f, bases)), nil
				}, func() (string, error) {
					f, err := forest.BuildMulti(bases, demands)
					if err != nil {
						return "", err
					}
					pf, err := forest.Pack(f)
					if err != nil {
						return "", err
					}
					return fmt.Sprintf("%s emitted=%v", forestValue(f, pf.PackedStats(0, make([]int64, f.Base.Target.N()))), forest.TargetsOf(f, bases)), nil
				})
				for _, scheme := range goldenSchemes {
					for _, mc := range goldenMultiMc {
						add(fmt.Sprintf("%s %s mc=%d", label, scheme, mc), func() (string, error) {
							f, err := forest.BuildMulti(bases, demands)
							if err != nil {
								return "", err
							}
							s, err := scheme.Schedule(f, mc)
							if err != nil {
								return "", err
							}
							return scheduleValue(s.Cycles, sched.StorageUnits(s), s.Slots), nil
						}, func() (string, error) {
							f, err := forest.BuildMulti(bases, demands)
							if err != nil {
								return "", err
							}
							pf, err := forest.Pack(f)
							if err != nil {
								return "", err
							}
							run := k.MMS
							if scheme == SRS {
								run = k.SRS
							}
							if err := run(pf, mc); err != nil {
								return "", err
							}
							return scheduleValue(k.Cycles(), sched.StorageUnits(k.Materialize(f)), k.Assignments()), nil
						})
					}
				}
			}
		}
	}

	// The seed-42 random sweep: random parts with a power-of-two sum, a
	// random base algorithm and a random demand per trial.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(5)
		depth := 3 + rng.Intn(5)
		parts := make([]int64, n)
		total := int64(1) << depth
		ok := true
		for i := 0; i < n-1; i++ {
			maxPart := total - int64(n-1-i) // leave at least 1 per later part
			if maxPart < 1 {
				ok = false
				break
			}
			parts[i] = 1 + rng.Int63n(maxPart)
			total -= parts[i]
		}
		parts[n-1] = total
		if !ok || total < 1 {
			continue
		}
		r, err := ratio.New(parts...)
		if err != nil {
			t.Fatalf("trial %d: ratio %v: %v", trial, parts, err)
		}
		alg := goldenAlgorithms[rng.Intn(len(goldenAlgorithms))]
		g, err := alg.build(r)
		if err != nil {
			t.Fatalf("trial %d: base build: %v", trial, err)
		}
		d := 1 + rng.Intn(40)
		label := fmt.Sprintf("random trial=%d %s/%s D=%d", trial, alg.name, r, d)
		add(label, func() (string, error) {
			f, err := forest.Build(g, d)
			if err != nil {
				return "", err
			}
			return forestValue(f, f.Stats()), nil
		}, func() (string, error) {
			pf, err := forest.BuildPacked(&pb, g, d)
			if err != nil {
				return "", err
			}
			return forestValue(pf.Materialize(), pf.PackedStats(0, make([]int64, g.Target.N()))), nil
		})
		for _, scheme := range goldenSchemes {
			const mc = 3
			add(fmt.Sprintf("%s %s mc=%d", label, scheme, mc), func() (string, error) {
				f, err := forest.Build(g, d)
				if err != nil {
					return "", err
				}
				s, err := scheme.Schedule(f, mc)
				if err != nil {
					return "", err
				}
				return scheduleValue(s.Cycles, sched.StorageUnits(s), s.Slots), nil
			}, func() (string, error) {
				p, err := BuildPlan(Config{Base: g, Mixers: mc, Scheduler: scheme}, d)
				if err != nil {
					return "", err
				}
				return scheduleValue(p.Cycles, p.Storage, p.Slots()), nil
			})
		}
	}

	// S(d): the peak storage of a single pass of d targets, d = 2..128, at
	// Mlb mixers. D' for any (q', limit) is the largest even d <= limit
	// with S(d) <= q'.
	for _, gg := range graphs {
		g := gg.g
		mc := sched.Mlb(g)
		for _, scheme := range goldenSchemes {
			add(fmt.Sprintf("storage %s %s mc=%d", gg.label, scheme, mc), func() (string, error) {
				s := make([]string, 0, storageScanMax-1)
				for d := 2; d <= storageScanMax; d++ {
					f, err := forest.Build(g, d)
					if err != nil {
						return "", err
					}
					sc, err := scheme.Schedule(f, mc)
					if err != nil {
						return "", err
					}
					s = append(s, strconv.Itoa(sched.StorageUnits(sc)))
				}
				return "S=" + strings.Join(s, ","), nil
			}, func() (string, error) {
				// Grown one tree at a time, as the demand scan grows it (an
				// odd d has the same forest as d+1), and measured the way
				// the scan measures it: S(d) is the least budget the
				// storage-bounded kernel accepts.
				s := make([]string, 0, storageScanMax-1)
				pb.Reset(g)
				within := k.MMSWithin
				if scheme == SRS {
					within = k.SRSWithin
				}
				for d := 2; d <= storageScanMax; d++ {
					if pb.Forest().NumTrees() < (d+1)/2 {
						pb.AddTree()
					}
					q, err := leastBudget(pb.Forest(), func(q int) (bool, error) {
						return within(pb.Forest(), mc, q)
					})
					if err != nil {
						return "", err
					}
					s = append(s, strconv.Itoa(q))
				}
				return "S=" + strings.Join(s, ","), nil
			})
		}
	}
	return rows
}

// leastBudget returns the fewest storage units a storage-bounded run of f
// accepts, by binary search: the schedule's peak storage S. Acceptance is
// monotone in the budget, because a cut never changes the cycles scheduled
// before it, and a budget of every hand-off droplet in f always fits.
func leastBudget(f *forest.PackedForest, fits func(q int) (bool, error)) (int, error) {
	lo, hi := 0, 0
	for i := range f.Tasks {
		hi += f.Tasks[i].InternalInputs()
	}
	for lo < hi {
		mid := (lo + hi) / 2
		ok, err := fits(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// readGolden parses the planner fixture into key -> value, preserving file
// order.
func readGolden(t testing.TB) (map[string]string, []string) {
	t.Helper()
	return readFixture(t, goldenPath, "TestPlannerGolden")
}

// readFixture parses the "<key> | <value>" fixture at path, which test
// writes under -update, into key -> value, preserving file order.
func readFixture(t testing.TB, path, test string) (map[string]string, []string) {
	t.Helper()
	fh, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/stream -run %s -update to create it)", err, test)
	}
	defer fh.Close()
	vals := map[string]string{}
	var order []string
	sc := bufio.NewScanner(fh)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " | ")
		if !ok {
			t.Fatalf("malformed fixture line %q", line)
		}
		if _, dup := vals[key]; dup {
			t.Fatalf("duplicate fixture row %q", key)
		}
		vals[key] = val
		order = append(order, key)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return vals, order
}

// TestPlannerGolden pins the planner against frozen fixtures: forests,
// MMS/SRS/OMS schedules, Mlb, scheduling windows, persistent-pool batch
// sequences, multi-target forests, a seeded random sweep and the S(d)
// storage curves behind every D'. Each row is computed twice — through the
// public forest/sched API and on the packed builder and kernel directly (the
// S(d) rows through the storage-bounded kernel the demand scan runs) — and
// both must match the fixture. Regenerate with -update only for an
// intended planner change.
func TestPlannerGolden(t *testing.T) {
	rows := plannerRows(t)
	got := make([]string, len(rows))
	failures := 0
	fail := func(format string, args ...any) {
		failures++
		if failures <= 20 {
			t.Errorf(format, args...)
		}
	}
	for i, row := range rows {
		api, err := row.api()
		if err != nil {
			api = "error: " + err.Error()
		}
		kern, err := row.kernel()
		if err != nil {
			kern = "error: " + err.Error()
		}
		if api != kern {
			fail("%s: api %q, kernel %q", row.key, api, kern)
		}
		got[i] = kern
	}
	if *updateGolden {
		var b strings.Builder
		b.WriteString("# Frozen planner fixtures for TestPlannerGolden: one case per line, \"<case> | <value>\".\n")
		b.WriteString("# forest: digest of every task, input, consumer and tree, plus Stats. plan/window/persist/multi/random/oms:\n")
		b.WriteString("# Tc, peak storage q (Algorithm 3) and a digest of the slot table. storage: S(d) for d = 2..128 at Mlb mixers.\n")
		b.WriteString("# Regenerate with: go test ./internal/stream -run TestPlannerGolden -update\n")
		for i, row := range rows {
			fmt.Fprintf(&b, "%s | %s\n", row.key, got[i])
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, order := readGolden(t)
	seen := make(map[string]bool, len(rows))
	for i, row := range rows {
		seen[row.key] = true
		w, ok := want[row.key]
		switch {
		case !ok:
			fail("%s: not in the fixture", row.key)
		case w != got[i]:
			fail("%s:\n got  %s\n want %s", row.key, got[i], w)
		}
	}
	for _, key := range order {
		if !seen[key] {
			fail("%s: fixture row no longer generated", key)
		}
	}
	if failures > 20 {
		t.Errorf("... and %d more mismatches", failures-20)
	}
	t.Logf("%d fixture rows checked", len(rows))
}
