package sched

import (
	"strconv"
	"strings"
)

// Gantt renders the schedule as the paper's modified Gantt chart (Fig. 4):
// one row per mixer, one column per time-cycle, each cell holding the
// m_{i,j} label of the task running there, followed by the storage-occupancy
// profile and the target-droplet emission sequence.
func Gantt(s *Schedule) string {
	labels := s.Forest.Labels()
	grid := make([][]string, s.Mixers+1)
	for m := range grid {
		grid[m] = make([]string, s.Cycles+1)
	}
	tasks := s.Tasks()
	for i, t := range tasks {
		a := s.Slots[i]
		grid[a.Mixer][a.Cycle] = labels[t]
	}

	width := 6
	for _, row := range grid {
		for _, cell := range row {
			if len(cell)+1 > width {
				width = len(cell) + 1
			}
		}
	}

	var b strings.Builder
	// One padded cell per grid slot plus header/profile rows and the target
	// line; sizing up front keeps the builder from re-growing mid-render.
	b.Grow((s.Mixers + 3) * (s.Cycles + 2) * width)
	pad := func(v string) {
		for i := width - len(v); i > 0; i-- {
			b.WriteByte(' ')
		}
		b.WriteString(v)
	}
	padInt := func(v int) { pad(strconv.Itoa(v)) }

	b.WriteString(s.Algorithm)
	b.WriteString(" schedule: Mc=")
	b.WriteString(strconv.Itoa(s.Mixers))
	b.WriteString(", Tc=")
	b.WriteString(strconv.Itoa(s.Cycles))
	b.WriteString(", q=")
	b.WriteString(strconv.Itoa(StorageUnits(s)))
	b.WriteByte('\n')
	pad("t")
	for t := 1; t <= s.Cycles; t++ {
		padInt(t)
	}
	b.WriteByte('\n')
	for m := 1; m <= s.Mixers; m++ {
		pad("M" + strconv.Itoa(m))
		for t := 1; t <= s.Cycles; t++ {
			cell := grid[m][t]
			if cell == "" {
				cell = "."
			}
			pad(cell)
		}
		b.WriteByte('\n')
	}
	profile := StorageProfile(s)
	pad("store")
	for t := 1; t <= s.Cycles; t++ {
		padInt(profile[t])
	}
	b.WriteByte('\n')

	// Emission sequence: component-tree roots emit two target droplets each.
	b.WriteString("targets:")
	var roots []int // window positions of the component-tree roots
	for i, task := range tasks {
		if task.Targets > 0 {
			roots = append(roots, i)
		}
	}
	for t := 1; t <= s.Cycles; t++ {
		for _, i := range roots {
			if int(s.Slots[i].Cycle) == t {
				b.WriteString(" t=")
				b.WriteString(strconv.Itoa(t))
				b.WriteString(":2x")
				b.WriteString(labels[tasks[i]])
			}
		}
	}
	b.WriteByte('\n')
	return b.String()
}
