// Package fluidsim replays a droplet-transport plan micro-step by
// micro-step on the electrode array. Where internal/exec only sums
// shortest-path costs, the replay walks every droplet along its actual
// route, producing per-electrode actuation counts — the wear metric behind
// the paper's §5 remark that "excessive electrode actuation leads to
// reliability problems and reduced lifetime for biochips" (citing
// Huang/Ho/Chakrabarty, ICCAD 2011) — plus an ASCII heat map and an
// animation trace for inspection.
//
// Moves within one time-cycle are replayed sequentially (droplets share the
// routing channels one at a time), so no two droplets ever meet: the
// classic static/dynamic droplet-interference constraints hold trivially,
// and the simulator asserts obstacle-freedom of every step.
package fluidsim

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/chip"
	"repro/internal/exec"
	"repro/internal/route"
)

// Result is the outcome of replaying a transport plan.
type Result struct {
	// Moves is the number of droplet transports replayed.
	Moves int
	// MicroSteps is the total number of single-electrode hops.
	MicroSteps int
	// Actuations counts activations per electrode (route cells only;
	// module-internal electrodes are not part of the routing fabric).
	Actuations map[chip.Point]int
	// Total is the sum over Actuations; it equals the plan's TotalCost.
	Total int
	// Hottest is the most-actuated electrode and MaxActuations its count —
	// the chip's reliability bottleneck.
	Hottest       chip.Point
	MaxActuations int
}

// Replay walks every move of the plan along its shortest route and
// accumulates electrode wear. It fails if any move's endpoints cannot be
// resolved or if the walked cost disagrees with the plan (which would
// indicate an exec/route inconsistency).
func Replay(plan *exec.Plan, layout *chip.Layout) (*Result, error) {
	// One Router per replay: the dense kernel reuses its flood scratch across
	// all moves instead of allocating per-call BFS maps.
	router := route.NewRouter(layout)
	ports := make(map[string]chip.Point, len(layout.Modules))
	for _, m := range layout.Modules {
		ports[m.Name] = m.Port
	}
	res := &Result{Actuations: make(map[chip.Point]int)}
	for _, mv := range plan.Moves {
		from, ok := ports[mv.From]
		if !ok {
			return nil, fmt.Errorf("fluidsim: unknown module %q", mv.From)
		}
		to, ok := ports[mv.To]
		if !ok {
			return nil, fmt.Errorf("fluidsim: unknown module %q", mv.To)
		}
		path, err := router.Path(from, to)
		if err != nil {
			return nil, fmt.Errorf("fluidsim: move %s->%s: %w", mv.From, mv.To, err)
		}
		if len(path)-1 != mv.Cost {
			return nil, fmt.Errorf("fluidsim: move %s->%s walks %d actuations, plan says %d",
				mv.From, mv.To, len(path)-1, mv.Cost)
		}
		res.Moves++
		for _, p := range path[1:] {
			res.Actuations[p]++
			res.MicroSteps++
			res.Total++
		}
	}
	for p, n := range res.Actuations {
		if n > res.MaxActuations || (n == res.MaxActuations && less(p, res.Hottest)) {
			res.MaxActuations = n
			res.Hottest = p
		}
	}
	return res, nil
}

func less(a, b chip.Point) bool {
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.X < b.X
}

// Heatmap renders per-electrode wear as ASCII: '.' for untouched routing
// cells, digits for low counts, letters beyond 9, '#' for module cells.
func (r *Result) Heatmap(layout *chip.Layout) string {
	blocked := layout.Blocked()
	var b strings.Builder
	for y := 0; y < layout.Height; y++ {
		for x := 0; x < layout.Width; x++ {
			p := chip.Point{X: x, Y: y}
			switch n := r.Actuations[p]; {
			case blocked(p):
				b.WriteByte('#')
			case n == 0:
				b.WriteByte('.')
			case n <= 9:
				b.WriteByte(byte('0' + n))
			case n <= 35:
				b.WriteByte(byte('a' + n - 10))
			default:
				b.WriteByte('+')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Histogram returns actuation counts sorted descending — the wear profile
// used to compare engine designs for reliability.
func (r *Result) Histogram() []int {
	out := make([]int, 0, len(r.Actuations))
	for _, n := range r.Actuations {
		out = append(out, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// Trace renders up to maxMoves moves as animation frames: one frame per
// micro-step, the droplet shown as '@' on the floorplan.
func Trace(plan *exec.Plan, layout *chip.Layout, maxMoves int) ([]string, error) {
	router := route.NewRouter(layout)
	ports := make(map[string]chip.Point, len(layout.Modules))
	for _, m := range layout.Modules {
		ports[m.Name] = m.Port
	}
	base := layout.Render()
	rows := strings.Split(strings.TrimRight(base, "\n"), "\n")
	var frames []string
	for i, mv := range plan.Moves {
		if i >= maxMoves {
			break
		}
		path, err := router.Path(ports[mv.From], ports[mv.To])
		if err != nil {
			return nil, err
		}
		for step, p := range path {
			grid := make([][]byte, len(rows))
			for y, row := range rows {
				grid[y] = []byte(row)
			}
			grid[p.Y][p.X] = '@'
			var b strings.Builder
			fmt.Fprintf(&b, "cycle %d, move %d/%d (%s %s->%s), step %d/%d\n",
				mv.Cycle, i+1, len(plan.Moves), mv.Purpose, mv.From, mv.To, step, len(path)-1)
			for _, row := range grid {
				b.Write(row)
				b.WriteByte('\n')
			}
			frames = append(frames, b.String())
		}
	}
	return frames, nil
}
