// Package svg renders the library's planning artefacts as standalone SVG
// documents — schedules as Gantt charts, floorplans as module maps,
// electrode wear as heat maps — using nothing beyond string building, so
// reports and papers can embed vector graphics straight from the engine.
package svg

import (
	"fmt"
	"strings"

	"repro/internal/chip"
	"repro/internal/fluidsim"
	"repro/internal/sched"
)

// treeColors cycles distinguishable fills for component trees.
var treeColors = []string{
	"#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2",
	"#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
}

const (
	cellW, cellH = 54, 26
	labelW       = 64
	headerH      = 28
)

func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// Gantt renders the schedule as an SVG Gantt chart: one row per mixer, one
// column per cycle, cells coloured by component tree, plus a storage track.
func Gantt(s *sched.Schedule) string {
	labels := s.Forest.Labels()
	w := labelW + s.Cycles*cellW + 10
	h := headerH + (s.Mixers+1)*cellH + 40
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`, w, h)
	fmt.Fprintf(&b, `<text x="4" y="16">%s schedule: Mc=%d, Tc=%d, q=%d</text>`,
		esc(s.Algorithm), s.Mixers, s.Cycles, sched.StorageUnits(s))
	// Cycle headers.
	for t := 1; t <= s.Cycles; t++ {
		fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle">%d</text>`,
			labelW+(t-1)*cellW+cellW/2, headerH+12, t)
	}
	// Mixer rows.
	for m := 1; m <= s.Mixers; m++ {
		y := headerH + m*cellH
		fmt.Fprintf(&b, `<text x="4" y="%d">M%d</text>`, y+17, m)
		for t := 1; t <= s.Cycles; t++ {
			fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#ccc"/>`,
				labelW+(t-1)*cellW, y, cellW, cellH)
		}
	}
	for _, task := range s.Tasks() {
		a := s.At(task)
		x := labelW + (a.Cycle-1)*cellW
		y := headerH + a.Mixer*cellH
		fill := treeColors[(task.Tree-1)%len(treeColors)]
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s" stroke="#333"/>`,
			x+1, y+1, cellW-2, cellH-2, fill)
		fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle" fill="#fff">%s</text>`,
			x+cellW/2, y+17, esc(labels[task]))
	}
	// Storage track.
	profile := sched.StorageProfile(s)
	y := headerH + (s.Mixers+1)*cellH + 8
	fmt.Fprintf(&b, `<text x="4" y="%d">store</text>`, y+12)
	for t := 1; t <= s.Cycles; t++ {
		fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle">%d</text>`,
			labelW+(t-1)*cellW+cellW/2, y+12, profile[t])
	}
	b.WriteString(`</svg>`)
	return b.String()
}

// kindFills colour modules by kind.
var kindFills = map[chip.Kind]string{
	chip.Reservoir: "#4e79a7",
	chip.Mixer:     "#f28e2b",
	chip.Storage:   "#59a14f",
	chip.Waste:     "#e15759",
	chip.Output:    "#b07aa1",
}

// Layout renders the floorplan: the electrode grid, module blocks with
// names, ports as circles and mixer exits as diamonds.
func Layout(l *chip.Layout) string {
	const cs = 24 // cell size
	w, h := l.Width*cs+2, l.Height*cs+2
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="10">`, w, h)
	for y := 0; y < l.Height; y++ {
		for x := 0; x < l.Width; x++ {
			fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="#f7f7f7" stroke="#ddd"/>`,
				1+x*cs, 1+y*cs, cs, cs)
		}
	}
	for _, m := range l.Modules {
		fill := kindFills[m.Kind]
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s" stroke="#333"/>`,
			1+m.Rect.X*cs, 1+m.Rect.Y*cs, m.Rect.W*cs, m.Rect.H*cs, fill)
		fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle" fill="#fff">%s</text>`,
			1+m.Rect.X*cs+m.Rect.W*cs/2, 1+m.Rect.Y*cs+m.Rect.H*cs/2+4, esc(m.Name))
		fmt.Fprintf(&b, `<circle cx="%d" cy="%d" r="5" fill="#333"/>`,
			1+m.Port.X*cs+cs/2, 1+m.Port.Y*cs+cs/2)
		if m.HasExit {
			ex, ey := 1+m.Exit.X*cs+cs/2, 1+m.Exit.Y*cs+cs/2
			fmt.Fprintf(&b, `<rect x="%d" y="%d" width="8" height="8" transform="rotate(45 %d %d)" fill="#333"/>`,
				ex-4, ey-4, ex, ey)
		}
	}
	b.WriteString(`</svg>`)
	return b.String()
}

// Wear renders per-electrode actuation counts as a heat map over the
// floorplan: white (untouched) to dark red (hottest).
func Wear(res *fluidsim.Result, l *chip.Layout) string {
	const cs = 24
	w, h := l.Width*cs+2, l.Height*cs+2
	blocked := l.Blocked()
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="9">`, w, h)
	max := res.MaxActuations
	if max == 0 {
		max = 1
	}
	for y := 0; y < l.Height; y++ {
		for x := 0; x < l.Width; x++ {
			p := chip.Point{X: x, Y: y}
			fill := "#ffffff"
			if blocked(p) {
				fill = "#dddddd"
			} else if n := res.Actuations[p]; n > 0 {
				// Interpolate white -> #b2182b.
				f := float64(n) / float64(max)
				r := 255 - int(f*float64(255-0xb2))
				g := 255 - int(f*float64(255-0x18))
				bl := 255 - int(f*float64(255-0x2b))
				fill = fmt.Sprintf("#%02x%02x%02x", r, g, bl)
			}
			fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s" stroke="#eee"/>`,
				1+x*cs, 1+y*cs, cs, cs, fill)
			if n := res.Actuations[p]; n > 0 {
				fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle">%d</text>`,
					1+x*cs+cs/2, 1+y*cs+cs/2+3, n)
			}
		}
	}
	b.WriteString(`</svg>`)
	return b.String()
}

// Forestry renders per-tree mix counts as a labelled bar chart — a quick
// visual of how the forest amortises work across component trees.
func Forestry(counts []int) string {
	const barW, gap, maxH = 26, 6, 120
	if len(counts) == 0 {
		return `<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10"></svg>`
	}
	max := counts[0]
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	w := len(counts)*(barW+gap) + gap
	h := maxH + 40
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="10">`, w, h)
	for i, c := range counts {
		bh := c * maxH / max
		x := gap + i*(barW+gap)
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s"/>`,
			x, 10+maxH-bh, barW, bh, treeColors[i%len(treeColors)])
		fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle">T%d</text>`, x+barW/2, maxH+24, i+1)
		fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle">%d</text>`, x+barW/2, 8+maxH-bh, c)
	}
	b.WriteString(`</svg>`)
	return b.String()
}
