package audit

import (
	"fmt"
	"slices"

	"repro/internal/forest"
	"repro/internal/plancache"
	"repro/internal/ratio"
)

// CheckPacked audits a plan's slab — the packed forest and slot table a
// plan holds — against the invariants CheckPlan proves on pointer forms,
// and the plan's claimed summary against a recount. It reads the arrays
// only: it never runs a scheduler and never materializes.
//
//   - Forest: every task instantiates a mix node of the base graph at its
//     positional level (which the schedulers' priorities read), and reads
//     its inputs from that node's children (PackedForest.FromChildren): a
//     dispense of a leaf child's fluid, or an earlier task of a mix child.
//     That is the premise of DESIGN §14's lemma. The base graph's build
//     proved every node's vector the average of its children's, so by
//     induction every task carries its base node's vector exactly, and
//     the error intervals AnalyzeGraph reads off the base graph hold for
//     it. Every tree's root is a task of the base root, the last of its
//     span, and the base root's vector is the target. Sources are in range
//     and topologically ordered, reuse flags mark cross-tree sources, and
//     every task's consumer links match the sources naming it and fit its
//     two outputs. |F| = ⌈D/2⌉, T = 2|F|, I = T + W and the zero-waste
//     theorem on MM hold, and the claimed Stats equal the recount.
//   - Schedule: one slot per task, each at a cycle in 1..Tc on a mixer in
//     1..Mc, producers strictly before consumers, no mixer booked twice in
//     a cycle, Tc the largest slot cycle and every cycle running a task
//     (a list schedule never idles).
//   - Storage: Algorithm 3's occupancy is recomputed two independent ways,
//     a difference array over droplet lifetimes and a walk over each
//     lifetime's cycles; they must agree at every cycle, and their peak
//     must equal the claimed Storage.
//
// A persistent batch's window (plancache.NewWindow) is checked on its own
// tasks and slots. A source made before it must name a committed task of
// the matching child, in a tree that checks its reuse tag, and is stored
// from cycle 1. Its waste is the pool's change, and its storage also holds
// its spares to its end and the earlier spares it leaves pooled
// throughout, as the engine counts them.
//
// It gates every plan a cache holds, built (stream.BuildPlan) or adopted
// (artifact.Verify), and every persistent batch. A clean run allocates the
// Report and one scratch buffer, whatever the plan's size
// (TestCleanAuditAllocs).
func CheckPacked(p *plancache.Plan) *Report {
	r := &Report{}
	f := p.Packed()
	first, pooled, window := p.Window()
	nTasks, cycles := len(f.Tasks)-first, p.Cycles
	if r.failed(first >= 0 && cycles >= 0 && cycles <= nTasks) {
		r.violate(&Violation{Code: Structure, Detail: fmt.Sprintf("Tc=%d for %d tasks from task %d: some cycle runs no task", cycles, nTasks, first)})
		return r
	}
	n := f.Base.Target.N()
	// The one scratch buffer: the target's CF words, the per-fluid input
	// recount, the per-task consumer recount and bucket order, and three
	// per-cycle tables (lifetime walk, difference array, bucket bounds).
	scratch := make([]int64, 2*n+2*nTasks+3*(cycles+2))
	words, inputs := scratch[:n], scratch[n:2*n]
	rest := scratch[2*n:]
	cons, order := rest[:nTasks], rest[nTasks:2*nTasks]
	rest = rest[2*nTasks:]
	walk, diff, end := rest[:cycles+2], rest[cycles+2:2*(cycles+2)], rest[2*(cycles+2):]

	carried, ok := checkPackedForest(r, f, first, pooled, p.Stats, words, inputs, cons)
	if !ok {
		return r
	}
	if !checkPackedSlots(r, p, first, cons, order, end) {
		return r
	}

	// Occupancy two ways: store adds n droplets held during cycles
	// from..to. A hand-off produced at cycle a (0 before the window) and
	// consumed at cycle b sits in storage during a+1 .. b-1.
	store := func(from, to int, n int64) {
		if from <= to {
			diff[from] += n
			diff[to+1] -= n
		}
		for c := from; c <= to; c++ {
			walk[c] += n
		}
	}
	slots := p.Slots()
	for i := first; i < len(f.Tasks); i++ {
		ran := slots[i-first].Cycle
		for _, src := range f.Tasks[i].In {
			if src.Kind == forest.FromTask {
				produced := 0
				if int(src.Ref) >= first {
					produced = slots[int(src.Ref)-first].Cycle
				}
				store(produced+1, ran-1, 1)
			}
		}
		if window {
			store(ran+1, cycles, int64(f.Tasks[i].FreeOutputs()))
		}
	}
	if window {
		store(1, cycles, carried)
	}
	occ, peak := int64(0), int64(0)
	for c := 1; c <= cycles; c++ {
		occ += diff[c]
		if r.failed(occ == walk[c]) {
			r.violate(&Violation{Code: StorageOccupancy, Cycle: c,
				Detail: fmt.Sprintf("difference-array occupancy %d, lifetime walk %d", occ, walk[c])})
		}
		peak = max(peak, occ)
	}
	if r.failed(peak == int64(p.Storage)) {
		r.violate(&Violation{Code: StorageOccupancy, Detail: fmt.Sprintf("peak occupancy %d, claimed storage %d", peak, p.Storage)})
	}
	return r
}

// checkPackedForest is CheckPacked's forest half, over the tasks from first
// on. It returns the spares the pool held before them, pooled, that they
// leave there, and reports false when a structural break makes the later
// checks meaningless.
func checkPackedForest(r *Report, f *forest.PackedForest, first, pooled int, claimed forest.Stats, words, inputs, cons []int64) (int64, bool) {
	n := len(inputs)
	g := f.Base
	nodes, tasks := g.Nodes, f.Tasks
	before := f.TreesBefore(first)
	st := forest.Stats{Trees: len(f.Roots) - before, Mixes: len(tasks) - first}
	st.Targets = 2 * st.Trees
	pre, roots := int64(0), 0 // sources made before the window; tasks emitting targets
	for i := first; i < len(tasks); i++ {
		t := &tasks[i]
		if r.failed(t.Base >= 0 && int(t.Base) < len(nodes) && !nodes[t.Base].IsLeaf()) {
			r.violate(&Violation{Code: Structure, Detail: fmt.Sprintf("task %d instantiates base node %d, not a mix node of the base graph", i, t.Base)})
			return 0, false
		}
		if r.failed(t.Level == int32(nodes[t.Base].PosLevel)) {
			r.violate(&Violation{Code: Structure, Detail: fmt.Sprintf("task %d at level %d, its base node %d at positional level %d", i, t.Level, t.Base, nodes[t.Base].PosLevel)})
			return 0, false
		}
		internal := 0
		for _, src := range t.In {
			var ok bool
			switch src.Kind {
			case forest.Input:
				ok = src.Ref >= 0 && int(src.Ref) < n && !src.Reused
			case forest.FromTask:
				ok = src.Ref >= 0 && int(src.Ref) < i && src.Reused == (tasks[src.Ref].Tree != t.Tree)
			}
			if r.failed(ok) {
				r.violate(&Violation{Code: Structure, Detail: fmt.Sprintf("task %d has an invalid, out-of-order or mis-tagged source %+v", i, src)})
				return 0, false
			}
			if src.Kind == forest.Input {
				inputs[src.Ref]++
				st.InputTotal++
				continue
			}
			internal++
			if src.Reused {
				st.Reuses++
			}
			if int(src.Ref) < first {
				pre++
				continue
			}
			cons[int(src.Ref)-first]++
		}
		if r.failed(int(t.NInternal) == internal) {
			r.violate(&Violation{Code: Structure, Detail: fmt.Sprintf("task %d counts %d internal inputs, its sources %d", i, t.NInternal, internal)})
			return 0, false
		}
		if r.failed(f.FromChildren(i)) {
			r.violate(&Violation{Code: Structure, Detail: fmt.Sprintf("task %d: sources %+v are not dispenses or tasks of its base node %d's children", i, t.In, t.Base)})
			return 0, false
		}
	}
	for i := first; i < len(tasks); i++ {
		t := &tasks[i]
		ok := int64(t.NCons) == cons[i-first] && int(t.NCons)+int(t.Targets) <= 2
		for c := 0; ok && c < int(t.NCons); c++ {
			j := t.Cons[c]
			ok = int(j) > i && int(j) < len(tasks) &&
				(tasks[j].In[0] == forest.PSource{Ref: int32(i), Kind: forest.FromTask, Reused: tasks[j].In[0].Reused} ||
					tasks[j].In[1] == forest.PSource{Ref: int32(i), Kind: forest.FromTask, Reused: tasks[j].In[1].Reused})
		}
		if r.failed(ok) {
			r.violate(&Violation{Code: Structure, Detail: fmt.Sprintf("task %d lists %d consumers %v and %d targets; %d sources name it", i, t.NCons, t.Cons, t.Targets, cons[i-first])})
			return 0, false
		}
		st.Waste += int64(t.FreeOutputs())
		if t.Targets != 0 {
			roots++
		}
	}
	st.Waste -= pre
	carried := int64(pooled) - pre
	if r.failed(carried >= 0) {
		r.violate(&Violation{Code: MassConservation, Detail: fmt.Sprintf("the window consumes %d spares of earlier batches, the pool held %d", pre, pooled)})
		return 0, false
	}

	// Trees: contiguous spans from the window's first task, each ending in
	// its root, the only task emitting targets.
	ok := len(f.TreeStart) == len(f.Roots) && roots == st.Trees
	for k := before; ok && k < len(f.Roots); k++ {
		lo, hi := f.TreeStart[k], int32(len(tasks))
		if k+1 < len(f.TreeStart) {
			hi = f.TreeStart[k+1]
		}
		ok = (k > before || lo == int32(first)) && lo < hi && hi <= int32(len(tasks)) && f.Roots[k] == hi-1 && tasks[hi-1].Targets == 2
		for j := lo; ok && j < hi; j++ {
			ok = tasks[j].Tree == int32(k+1)
		}
	}
	if r.failed(ok) {
		r.violate(&Violation{Code: Structure, Detail: fmt.Sprintf("%d tree spans and %d roots do not partition %d tasks into trees ending at their roots", len(f.TreeStart), len(f.Roots), len(tasks)-first)})
		return 0, false
	}

	wantTrees := (f.Demand + 1) / 2
	if r.failed(len(f.Roots) == wantTrees) {
		r.violate(&Violation{Code: TargetCount, Detail: fmt.Sprintf("|F| = %d trees for D=%d, want ⌈D/2⌉ = %d", len(f.Roots), f.Demand, wantTrees)})
	}
	if r.failed(st.InputTotal == int64(st.Targets)+st.Waste) {
		r.violate(&Violation{Code: MassConservation, Detail: fmt.Sprintf("I=%d, T=%d, W=%d: I != T + W", st.InputTotal, st.Targets, st.Waste)})
	}
	// Every root emits the base root's vector, which must be the target's:
	// its parts over 2^depth, reduced.
	for k, root := range f.Roots[before:] {
		if b := tasks[root].Base; r.failed(b == int32(g.Root.ID)) {
			r.violate(&Violation{Code: CFExactness, Detail: fmt.Sprintf("tree %d is rooted at base node %d, not the base root %d", before+k+1, b, g.Root.ID)})
		}
	}
	for i := range words {
		words[i] = g.Target.Part(i)
	}
	if v := g.Root.Vec; r.failed(v.EqualWords(words, ratio.ReduceWords(words, uint(g.Target.Depth())))) {
		r.violate(&Violation{Code: CFExactness, Detail: fmt.Sprintf("base root CF %v, want %v", v, g.Target.Vector())})
	}
	// The theorem holds for the forest as a whole: for a window, the pool
	// it leaves.
	if g.Algorithm == "MM" {
		if d := g.Target.Depth(); d >= 1 {
			if period, emitted := int64(1)<<uint(d), int64(2*len(f.Roots)); emitted%period == 0 {
				if w := int64(pooled) + st.Waste; r.failed(w == 0) {
					r.violate(&Violation{Code: WasteCount, Detail: fmt.Sprintf("W=%d for emitted=%d ≡ 0 mod 2^%d on MM base, want 0", w, emitted, d)})
				}
			}
		}
	}
	ok = claimed.Trees == st.Trees && claimed.Mixes == st.Mixes && claimed.Targets == st.Targets &&
		claimed.Waste == st.Waste && claimed.InputTotal == st.InputTotal && claimed.Reuses == st.Reuses &&
		slices.Equal(claimed.Inputs, inputs)
	if r.failed(ok) {
		r.violate(&Violation{Code: MassConservation, Detail: fmt.Sprintf("claimed stats %+v, recount %+v with inputs %v", claimed, st, inputs)})
	}
	return carried, true
}

// checkPackedSlots is CheckPacked's schedule half over the tasks from first
// on: coverage, cycle and mixer ranges, precedence, Tc, and mixer
// exclusivity. perCycle (one entry per task, as Tc never exceeds the task
// count) counts each cycle's tasks.
func checkPackedSlots(r *Report, p *plancache.Plan, first int, perCycle, order, end []int64) bool {
	f, slots := p.Packed(), p.Slots()
	if r.failed(len(slots) == len(f.Tasks)-first) {
		r.violate(&Violation{Code: Structure, Detail: fmt.Sprintf("%d slots for %d tasks", len(slots), len(f.Tasks)-first)})
		return false
	}
	clear(perCycle)
	maxCycle := 0
	for i, a := range slots {
		ok := a.Cycle >= 1 && a.Cycle <= p.Cycles && a.Mixer >= 1 && a.Mixer <= p.Mixers
		for _, src := range f.Tasks[first+i].In {
			ok = ok && (src.Kind != forest.FromTask || int(src.Ref) < first || slots[int(src.Ref)-first].Cycle < a.Cycle)
		}
		if r.failed(ok) {
			r.violate(&Violation{Code: Structure, Detail: fmt.Sprintf("task %d at (cycle %d, mixer %d): outside 1..Tc=%d and 1..Mc=%d, or not after its producers", first+i, a.Cycle, a.Mixer, p.Cycles, p.Mixers)})
			return false
		}
		perCycle[a.Cycle-1]++
		maxCycle = max(maxCycle, a.Cycle)
	}
	idle := false
	for c := 0; c < p.Cycles; c++ {
		idle = idle || perCycle[c] == 0
	}
	if r.failed(maxCycle == p.Cycles && !idle) {
		r.violate(&Violation{Code: Structure, Detail: fmt.Sprintf("Tc=%d but the slots reach cycle %d or leave a cycle idle", p.Cycles, maxCycle)})
		return false
	}
	// Mixer exclusivity: counting-sort the slots into per-cycle buckets of
	// (mixer, task) keys, sort each bucket, and look for equal neighbours.
	clear(end)
	for _, a := range slots {
		end[a.Cycle]++
	}
	for c := 1; c < len(end); c++ {
		end[c] += end[c-1]
	}
	for i := len(slots) - 1; i >= 0; i-- {
		a := slots[i]
		end[a.Cycle]--
		order[end[a.Cycle]] = int64(a.Mixer)<<32 | int64(first+i)
	}
	for c := 1; c <= p.Cycles; c++ {
		bucket := order[end[c]:end[c+1]]
		if r.failed(len(bucket) <= p.Mixers) {
			r.violate(&Violation{Code: Structure, Detail: fmt.Sprintf("%d mixes at cycle %d on %d mixers", len(bucket), c, p.Mixers)})
			return false
		}
		slices.Sort(bucket)
		for k := 1; k < len(bucket); k++ {
			if r.failed(bucket[k]>>32 != bucket[k-1]>>32) {
				r.violate(&Violation{Code: Structure, Cycle: c, Detail: fmt.Sprintf("mixer %d double-booked (tasks %d and %d)", bucket[k]>>32, uint32(bucket[k-1]), uint32(bucket[k]))})
				return false
			}
		}
	}
	return true
}
