package experiments

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/forest"
	"repro/internal/motion"
	"repro/internal/protocols"
	"repro/internal/route"
	"repro/internal/sched"
	"repro/internal/stream"
)

var updateChipGolden = flag.Bool("update", false, "rewrite testdata/chip_golden.txt from the current chip layer")

const chipGoldenPath = "testdata/chip_golden.txt"

// chipRow is one frozen case of the chip layer and its current value.
type chipRow struct{ key, got string }

type namedLayout struct {
	name string
	l    *chip.Layout
}

// goldenLayouts returns the routing geometries the fixtures cover: the
// Fig. 5 floorplan, its storage variants, auto-generated lattices and
// degraded (dead-module and stuck-electrode) descendants.
func goldenLayouts(t testing.TB) []namedLayout {
	t.Helper()
	out := []namedLayout{{"pcr", chip.PCRLayout()}}
	for _, q := range []int{0, 3, 6} {
		l, err := chip.PCRLayoutWithStorage(q)
		if err != nil {
			t.Fatalf("PCRLayoutWithStorage(%d): %v", q, err)
		}
		out = append(out, namedLayout{fmt.Sprintf("pcr-q%d", q), l})
	}
	for _, a := range [][3]int{{10, 4, 6}, {3, 2, 2}} {
		l, err := chip.AutoLayout(a[0], a[1], a[2])
		if err != nil {
			t.Fatalf("AutoLayout%v: %v", a, err)
		}
		out = append(out, namedLayout{fmt.Sprintf("auto-%d-%d-%d", a[0], a[1], a[2]), l})
	}
	out = append(out,
		namedLayout{"pcr-dead-m3", chip.PCRLayout().Degrade(map[string]bool{"M3": true}, nil)},
		namedLayout{"pcr-stuck", chip.PCRLayout().Degrade(nil, []chip.Point{{X: 6, Y: 6}, {X: 9, Y: 3}, {X: 12, Y: 9}, {X: 0, Y: 9}})},
	)
	// M2's port walled in by stuck electrodes: every route to it is
	// unreachable and the matrix cannot be built.
	pcr := chip.PCRLayout()
	m2, _ := pcr.Module("M2")
	p := m2.Port
	return append(out, namedLayout{"pcr-walled-m2", pcr.Degrade(nil, []chip.Point{
		{X: p.X - 1, Y: p.Y}, {X: p.X + 1, Y: p.Y}, {X: p.X, Y: p.Y - 1}, {X: p.X, Y: p.Y + 1},
	})})
}

// gridLayouts names the geometries that also get endpoint-grid rows.
var gridLayouts = map[string]bool{"pcr": true, "auto-10-4-6": true, "pcr-stuck": true}

// endpointGrid returns every second electrode in both directions plus two
// points just outside the array.
func endpointGrid(l *chip.Layout) []chip.Point {
	var pts []chip.Point
	for y := 0; y < l.Height; y += 2 {
		for x := 0; x < l.Width; x += 2 {
			pts = append(pts, chip.Point{X: x, Y: y})
		}
	}
	return append(pts, chip.Point{X: -1, Y: 0}, chip.Point{X: l.Width, Y: l.Height - 1})
}

// routeCell renders one query as its length, or the class of its typed
// error (B blocked, O out of grid, U unreachable), and feeds the path or
// the error text into h. A Distance that disagrees with the Path renders
// as "!".
func routeCell(h io.Writer, r *route.Router, from, to chip.Point) string {
	p, errP := r.Path(from, to)
	d, errD := r.Distance(from, to)
	if errP != nil {
		fmt.Fprintf(h, "%v;", errP)
		if errD == nil || errD.Error() != errP.Error() {
			return "!"
		}
		switch {
		case errors.Is(errP, route.ErrBlocked):
			return "B"
		case errors.Is(errP, route.ErrOutOfGrid):
			return "O"
		case errors.Is(errP, route.ErrUnreachable):
			return "U"
		}
		return "?"
	}
	fmt.Fprintf(h, "%v;", p)
	if errD != nil || d != len(p)-1 {
		return "!"
	}
	return fmt.Sprint(len(p) - 1)
}

// routeRow renders the queries from one source to every target.
func routeRow(r *route.Router, from chip.Point, targets []chip.Point) string {
	h := fnv.New64a()
	cells := make([]string, len(targets))
	for i, to := range targets {
		cells[i] = routeCell(h, r, from, to)
	}
	return fmt.Sprintf("%s paths=%016x", strings.Join(cells, ","), h.Sum64())
}

// matrixText renders the dense transport-cost matrix row by row in module
// order, or "error" when some port is blocked or unreachable (the port rows
// pin which).
func matrixText(l *chip.Layout) string {
	m, err := route.NewRouter(l).Matrix()
	if err != nil {
		return "error"
	}
	var b strings.Builder
	for i := range l.Modules {
		if i > 0 {
			b.WriteByte('/')
		}
		for j := range l.Modules {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprint(&b, m.At(i, j))
		}
	}
	return b.String()
}

// routerRows freezes the routing kernel: the transport-cost matrix of every
// layout, the path from every module port to every other, and the path
// between every pair of endpoint-grid points on three of the layouts.
func routerRows(t testing.TB) []chipRow {
	var rows []chipRow
	for _, g := range goldenLayouts(t) {
		l := g.l
		rows = append(rows, chipRow{"matrix " + g.name, matrixText(l)})
		ports := make([]chip.Point, len(l.Modules))
		for i, m := range l.Modules {
			ports[i] = m.Port
		}
		r := route.NewRouter(l)
		for _, m := range l.Modules {
			rows = append(rows, chipRow{fmt.Sprintf("port %s %s", g.name, m.Name), routeRow(r, m.Port, ports)})
		}
		if !gridLayouts[g.name] {
			continue
		}
		grid := endpointGrid(l)
		for _, from := range grid {
			rows = append(rows, chipRow{fmt.Sprintf("grid %s (%d,%d)", g.name, from.X, from.Y), routeRow(r, from, grid)})
		}
	}
	return rows
}

// goldenFlow builds a deterministic pseudo-random traffic matrix over the
// layout's modules, optionally with edges naming modules outside it.
func goldenFlow(l *chip.Layout, seed int64, withUnknown bool) chip.Flow {
	rng := rand.New(rand.NewSource(seed))
	f := chip.Flow{}
	for i := 0; i < 3*len(l.Modules); i++ {
		a := l.Modules[rng.Intn(len(l.Modules))].Name
		b := l.Modules[rng.Intn(len(l.Modules))].Name
		f.Add(a, b, 1+rng.Intn(20))
	}
	if withUnknown {
		f.Add(l.Modules[0].Name, "phantom", 50)
		f.Add("ghost", "wraith", 7)
	}
	return f
}

// manhattan is the obstacle-blind cost model: port-to-port Manhattan
// distance in module order.
type manhattan []chip.Point

func (m manhattan) Len() int { return len(m) }

func (m manhattan) At(i, j int) int {
	return abs(m[i].X-m[j].X) + abs(m[i].Y-m[j].Y)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// layoutDigest hashes every field of a layout.
func layoutDigest(l *chip.Layout) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *l)
	return fmt.Sprintf("%016x", h.Sum64())
}

func annealText(l *chip.Layout, flow chip.Flow, model string, iters int, seed int64) string {
	var d chip.Distances
	if model == "route" {
		m, err := route.MatrixFor(l)
		if err != nil {
			return "error: " + err.Error()
		}
		d = m
	} else {
		ports := make(manhattan, len(l.Modules))
		for i, m := range l.Modules {
			ports[i] = m.Port
		}
		d = ports
	}
	opt, cost, err := chip.OptimizePlacement(l, flow, d, iters, seed)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("cost=%d layout=%s", cost, layoutDigest(opt))
}

// fig5Schedule is the D=20 PCR SRS schedule of Fig. 5 on three mixers.
func fig5Schedule(t testing.TB) *sched.Schedule {
	t.Helper()
	base, err := core.MM.Build(protocols.PCR16().Ratio)
	if err != nil {
		t.Fatal(err)
	}
	f, err := forest.Build(base, 20)
	if err != nil {
		t.Fatal(err)
	}
	s, err := stream.SRS.Schedule(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// placementRows freezes the placement annealer: final layout and cost on
// the PCR and AutoLayout floorplans, for random flows with and without
// unknown module names, under the Manhattan and the routed cost model, plus
// the Fig. 5 plan's own traffic at the seeds and iteration counts the
// executor tests, Fig. 5 and chipsim use.
func placementRows(t testing.TB) []chipRow {
	auto, err := chip.AutoLayout(10, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	var rows []chipRow
	add := func(key string, l *chip.Layout, flow chip.Flow, model string, iters int, seed int64) {
		rows = append(rows, chipRow{key, annealText(l, flow, model, iters, seed)})
	}
	for _, g := range []namedLayout{{"pcr", chip.PCRLayout()}, {"auto-10-4-6", auto}} {
		for _, model := range []string{"manhattan", "route"} {
			for _, withUnknown := range []bool{false, true} {
				for _, seed := range []int64{1, 7, 42} {
					for _, iters := range []int{0, 25, 400} {
						flow := goldenFlow(g.l, seed*13+int64(iters), withUnknown)
						add(fmt.Sprintf("anneal %s %s unknown=%v seed=%d iters=%d", g.name, model, withUnknown, seed, iters),
							g.l, flow, model, iters, seed)
					}
				}
			}
		}
	}
	l := chip.PCRLayout()
	plan, err := exec.Execute(fig5Schedule(t), l)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		seed  int64
		iters int
	}{{1, 300}, {5, 300}, {1, 400}, {1, 600}, {1, 800}} {
		add(fmt.Sprintf("anneal pcr route flow=fig5 seed=%d iters=%d", c.seed, c.iters), l, plan.Flow, "route", c.iters, c.seed)
	}
	return rows
}

// fig5Rows freezes experiments.Fig5Compute(20).Format() line by line.
func fig5Rows(t testing.TB) []chipRow {
	f, err := Fig5Compute(20)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(f.Format(), "\n")
	rows := make([]chipRow, len(lines))
	for i, line := range lines {
		rows[i] = chipRow{fmt.Sprintf("fig5 D=20 line %02d", i+1), line}
	}
	return rows
}

// motionRows freezes the concurrent droplet router on the Fig. 5 plan:
// makespan, serialized cost and a digest of every trajectory.
func motionRows(t testing.TB) []chipRow {
	l := chip.PCRLayout()
	plan, err := exec.Execute(fig5Schedule(t), l)
	if err != nil {
		t.Fatal(err)
	}
	res, err := motion.RoutePlan(plan, l)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, c := range res.Cycles {
		fmt.Fprintf(h, "%+v;", c)
	}
	return []chipRow{{"motion pcr SRS D=20",
		fmt.Sprintf("makespan=%d serialized=%d cycles=%d routes=%016x", res.Makespan, res.Serialized, len(res.Cycles), h.Sum64())}}
}

func chipRows(t testing.TB) []chipRow {
	rows := routerRows(t)
	rows = append(rows, placementRows(t)...)
	rows = append(rows, fig5Rows(t)...)
	return append(rows, motionRows(t)...)
}

func readChipGolden(t testing.TB) (map[string]string, []string) {
	t.Helper()
	fh, err := os.Open(chipGoldenPath)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/experiments -run TestChipGolden -update to create it)", err)
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
		key, val, ok := strings.Cut(line, " |")
		if !ok {
			t.Fatalf("malformed fixture line %q", line)
		}
		if _, dup := vals[key]; dup {
			t.Fatalf("duplicate fixture row %q", key)
		}
		vals[key] = strings.TrimPrefix(val, " ")
		order = append(order, key)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return vals, order
}

// TestChipGolden pins the chip layer against frozen fixtures: the routing
// kernel's matrices and paths, the placement annealer's final layouts and
// costs, the Fig. 5 report and the concurrent router's result on the Fig. 5
// plan. Regenerate with -update only for an intended chip-layer change.
func TestChipGolden(t *testing.T) {
	rows := chipRows(t)
	failures := 0
	fail := func(format string, args ...any) {
		failures++
		if failures <= 20 {
			t.Errorf(format, args...)
		}
	}
	if *updateChipGolden {
		var b strings.Builder
		b.WriteString("# Frozen chip-layer fixtures for TestChipGolden: one case per line, \"<case> | <value>\".\n")
		b.WriteString("# matrix: transport-cost matrix rows in module order. port/grid: from one source to every module port\n")
		b.WriteString("# or grid point, the path length or error class (B blocked, O out of grid, U unreachable) and a digest\n")
		b.WriteString("# of the paths and error texts. anneal: final cost and layout digest. fig5: Fig5Compute(20).Format().\n")
		b.WriteString("# motion: motion.RoutePlan on the Fig. 5 plan.\n")
		b.WriteString("# Regenerate with: go test ./internal/experiments -run TestChipGolden -update\n")
		for _, row := range rows {
			fmt.Fprintf(&b, "%s | %s\n", row.key, row.got)
		}
		if err := os.WriteFile(chipGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, order := readChipGolden(t)
	seen := make(map[string]bool, len(rows))
	for _, row := range rows {
		seen[row.key] = true
		w, ok := want[row.key]
		switch {
		case !ok:
			fail("%s: not in the fixture", row.key)
		case w != row.got:
			fail("%s:\n got  %s\n want %s", row.key, row.got, w)
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
