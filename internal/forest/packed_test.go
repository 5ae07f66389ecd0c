package forest

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/minmix"
	"repro/internal/mixgraph"
	"repro/internal/mtcs"
	"repro/internal/protocols"
	"repro/internal/ratio"
	"repro/internal/rma"
)

// TestPTaskSize pins the packed task record at 16 bytes (base node, level
// and two 4-byte sources): every cached plan holds one per task, so each
// byte is kilobytes of plan-cache heap.
func TestPTaskSize(t *testing.T) {
	if got := unsafe.Sizeof(PTask{}); got != 16 {
		t.Fatalf("PTask is %d bytes, want 16", got)
	}
}

// TestTreeOf checks that the tree spans give every task of a built forest
// the tree the builder grew it in.
func TestTreeOf(t *testing.T) {
	g, err := minmix.Build(protocols.PCR16().Ratio)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := BuildPacked(NewPackedBuilder(g), g, 20)
	if err != nil {
		t.Fatal(err)
	}
	f := pf.Materialize()
	for _, tree := range f.Trees {
		for _, task := range tree.Tasks {
			if got := pf.TreeOf(task.ID); got != tree.Index || task.Tree != tree.Index {
				t.Fatalf("task %d: TreeOf %d, Task.Tree %d, in tree %d", task.ID, got, task.Tree, tree.Index)
			}
		}
	}
}

// forestsEqual compares two pointer forests structurally, field by field.
func forestsEqual(t *testing.T, got, want *Forest) {
	t.Helper()
	if got.Demand != want.Demand {
		t.Fatalf("Demand %d, want %d", got.Demand, want.Demand)
	}
	if len(got.Tasks) != len(want.Tasks) {
		t.Fatalf("%d tasks, want %d", len(got.Tasks), len(want.Tasks))
	}
	for i := range want.Tasks {
		g, w := got.Tasks[i], want.Tasks[i]
		if g.ID != w.ID || g.Tree != w.Tree || g.Base != w.Base || g.Level != w.Level ||
			g.Targets != w.Targets || !g.Vec.Equal(w.Vec) {
			t.Fatalf("task %d header differs: %+v vs %+v", i, g, w)
		}
		for s := 0; s < 2; s++ {
			gs, ws := g.In[s], w.In[s]
			if gs.Kind != ws.Kind || gs.Reused != ws.Reused {
				t.Fatalf("task %d input %d differs: %+v vs %+v", i, s, gs, ws)
			}
			if gs.Kind == Input && gs.Fluid != ws.Fluid {
				t.Fatalf("task %d input %d fluid %d, want %d", i, s, gs.Fluid, ws.Fluid)
			}
			if gs.Kind == FromTask && gs.Task.ID != ws.Task.ID {
				t.Fatalf("task %d input %d from task %d, want %d", i, s, gs.Task.ID, ws.Task.ID)
			}
		}
		if len(g.consumers) != len(w.consumers) {
			t.Fatalf("task %d has %d consumers, want %d", i, len(g.consumers), len(w.consumers))
		}
		for c := range w.consumers {
			if g.consumers[c].ID != w.consumers[c].ID {
				t.Fatalf("task %d consumer %d is %d, want %d", i, c, g.consumers[c].ID, w.consumers[c].ID)
			}
		}
	}
	if len(got.Trees) != len(want.Trees) {
		t.Fatalf("%d trees, want %d", len(got.Trees), len(want.Trees))
	}
	for i := range want.Trees {
		g, w := got.Trees[i], want.Trees[i]
		if g.Index != w.Index || g.Root.ID != w.Root.ID || !g.Want.Equal(w.Want) {
			t.Fatalf("tree %d header differs", i)
		}
		if len(g.Tasks) != len(w.Tasks) {
			t.Fatalf("tree %d has %d tasks, want %d", i, len(g.Tasks), len(w.Tasks))
		}
		for j := range w.Tasks {
			if g.Tasks[j].ID != w.Tasks[j].ID {
				t.Fatalf("tree %d task %d is %d, want %d", i, j, g.Tasks[j].ID, w.Tasks[j].ID)
			}
		}
	}
}

// bases returns every (protocol, algorithm) base graph the paper evaluates.
func allBases(t *testing.T) []*mixgraph.Graph {
	t.Helper()
	var out []*mixgraph.Graph
	ratios := []ratio.Ratio{protocols.PCR16().Ratio}
	for _, p := range protocols.Table2() {
		ratios = append(ratios, p.Ratio)
	}
	for _, r := range ratios {
		for name, build := range map[string]func(ratio.Ratio) (*mixgraph.Graph, error){
			"MM": minmix.Build, "RMA": rma.Build, "MTCS": mtcs.Build,
		} {
			g, err := build(r)
			if err != nil {
				t.Fatalf("%s(%v): %v", name, r, err)
			}
			out = append(out, g)
		}
	}
	return out
}

// TestBuilderGrowsInPlace checks that a packed builder grows its forest in
// place and writes each task once: after every AddTree the forest equals a
// one-shot build of that many trees, and every earlier task keeps its
// tree and its bytes — what the persistent engine's history of committed
// batches and the demand scan's prefixes rely on.
func TestBuilderGrowsInPlace(t *testing.T) {
	g, err := minmix.Build(protocols.PCR16().Ratio)
	if err != nil {
		t.Fatal(err)
	}
	b := NewPackedBuilder(g)
	var earlier []PTask
	var starts []int32 // tree spans before the step: earlier tasks keep their trees
	for step := 1; step <= 16; step++ {
		b.AddTree()
		pf := b.Forest()
		if pf.NumTrees() != step {
			t.Fatalf("step %d: %d trees", step, pf.NumTrees())
		}
		if !slices.Equal(pf.TreeStart[:step-1], starts) || int(pf.TreeStart[step-1]) != len(earlier) {
			t.Fatalf("step %d: tree starts %v, earlier %v over %d tasks", step, pf.TreeStart, starts, len(earlier))
		}
		starts = append(starts[:0], pf.TreeStart...)
		for i, was := range earlier {
			if now := pf.Tasks[i]; now != was {
				t.Fatalf("step %d: task %d changed from %+v to %+v", step, i, was, now)
			}
		}
		earlier = append(earlier[:0], pf.Tasks...)
		want, err := BuildPacked(NewPackedBuilder(g), g, 2*step)
		if err != nil {
			t.Fatal(err)
		}
		forestsEqual(t, pf.Materialize(), want.Materialize())
		if got, want := b.PoolSize(), packedBuilderAt(t, g, step).PoolSize(); got != want {
			t.Fatalf("step %d: pool %d, one-shot pool %d", step, got, want)
		}
	}
}

// TestBuilderRollback checks Mark and Rollback on every paper base graph:
// a builder marked after m trees that grows k more, rolls back and grows
// the same k trees again must hold the tasks, tree starts and pool of one
// that grew m+k trees and never rolled back, with every task below the
// mark unwritten. Some rollbacks cross a reallocation of the task arena
// and of a non-empty pool FIFO. Reset discards the mark.
func TestBuilderRollback(t *testing.T) {
	same := func(what string, got, want *PackedBuilder) {
		t.Helper()
		gf, wf := got.Forest(), want.Forest()
		if !slices.Equal(gf.Tasks, wf.Tasks) || !slices.Equal(gf.TreeStart, wf.TreeStart) || got.PoolSize() != want.PoolSize() {
			t.Fatalf("%s: %d tasks, %d trees, pool %d; want %d, %d, %d", what,
				len(gf.Tasks), gf.NumTrees(), got.PoolSize(), len(wf.Tasks), wf.NumTrees(), want.PoolSize())
		}
	}
	arenaMoved, fifoMoved := false, false
	for _, g := range allBases(t) {
		for _, c := range []struct{ m, k int }{{0, 1}, {1, 3}, {5, 2}, {3, 200}, {40, 40}} {
			name := fmt.Sprintf("%s %s m=%d k=%d", g.Algorithm, g.Target, c.m, c.k)
			b := packedBuilderAt(t, g, c.m)
			b.Mark()
			slab := slices.Clip(b.Forest().Tasks) // as a persistent batch holds it
			was := slices.Clone(slab)
			arena := unsafe.SliceData(b.f.Tasks)
			fifos := make([]*int32, len(b.pool))
			for i := range b.pool {
				fifos[i] = unsafe.SliceData(b.pool[i].items)
			}
			for range c.k {
				b.AddTree()
			}
			arenaMoved = arenaMoved || arena != nil && unsafe.SliceData(b.f.Tasks) != arena
			for i := range b.pool {
				fifoMoved = fifoMoved || fifos[i] != nil && unsafe.SliceData(b.pool[i].items) != fifos[i]
			}
			for round := 1; round <= 2; round++ {
				b.Rollback()
				same(fmt.Sprintf("%s: rollback %d", name, round), b, packedBuilderAt(t, g, c.m))
				for range c.k {
					b.AddTree()
				}
				same(fmt.Sprintf("%s: regrown %d", name, round), b, packedBuilderAt(t, g, c.m+c.k))
			}
			if !slices.Equal(slab, was) {
				t.Fatalf("%s: a task below the mark was written", name)
			}
		}
	}
	if !arenaMoved || !fifoMoved {
		t.Fatalf("no rollback crossed a reallocation (arena %v, FIFO %v)", arenaMoved, fifoMoved)
	}

	g := allBases(t)[0]
	b := packedBuilderAt(t, g, 3)
	b.Mark()
	b.AddTree()
	b.Reset(g)
	b.AddTree()
	same("after Reset", b, packedBuilderAt(t, g, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("Rollback after Reset did not panic")
		}
	}()
	b.Rollback()
}

// packedBuilderAt returns a packed builder after trees AddTree calls.
func packedBuilderAt(t *testing.T, g *mixgraph.Graph, trees int) *PackedBuilder {
	t.Helper()
	pb := NewPackedBuilder(g)
	for i := 0; i < trees; i++ {
		pb.AddTree()
	}
	return pb
}

// TestPackRoundTrip checks Pack inverts Materialize on every protocol
// forest and packs BuildMulti's combined forests with their consumer links
// intact.
func TestPackRoundTrip(t *testing.T) {
	bases := allBases(t)
	for _, g := range bases {
		for _, demand := range []int{1, 2, 7, 20} {
			pf, err := BuildPacked(NewPackedBuilder(g), g, demand)
			if err != nil {
				t.Fatal(err)
			}
			f := pf.Materialize()
			back, err := Pack(f)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, pf) {
				t.Fatalf("%s D=%d: Pack(Materialize) differs from the packed forest", g.Algorithm, demand)
			}
		}
	}
	mf, err := BuildMulti(bases[:2], []int{5, 8})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := Pack(mf)
	if err != nil {
		t.Fatal(err)
	}
	named := make([]int, len(pm.Tasks))
	for _, pt := range pm.Tasks {
		for _, src := range pt.In {
			if src.Kind() == FromTask {
				named[src.Ref()]++
			}
		}
	}
	for i, task := range mf.Tasks {
		if named[i] != len(task.Consumers()) || (pm.Root(pm.TreeOf(i)-1) == int32(i)) != (task.Targets == 2) {
			t.Fatalf("multi task %d: %d packed sources name it, forest %d consumers", i, named[i], len(task.Consumers()))
		}
	}
}

// TestPackedStatsMatch checks PackedStats against Stats of the
// materialized forest.
func TestPackedStatsMatch(t *testing.T) {
	for _, g := range allBases(t) {
		pb := NewPackedBuilder(g)
		pf, err := BuildPacked(pb, g, 20)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Build(g, 20)
		if err != nil {
			t.Fatal(err)
		}
		ws := want.Stats()
		buf := make([]int64, g.Target.N())
		gs := pf.PackedStats(0, buf)
		if gs.Trees != ws.Trees || gs.Mixes != ws.Mixes || gs.Waste != ws.Waste ||
			gs.InputTotal != ws.InputTotal || gs.Targets != ws.Targets || gs.Reuses != ws.Reuses {
			t.Fatalf("packed stats %+v, materialized %+v", gs, ws)
		}
		for i := range ws.Inputs {
			if gs.Inputs[i] != ws.Inputs[i] {
				t.Fatalf("input %d: packed %d, materialized %d", i, gs.Inputs[i], ws.Inputs[i])
			}
		}
	}
}

// TestPackedBuilderZeroAllocSteadyState proves the tentpole's warm-append
// criterion: once the arenas have grown to a demand's size, rebuilding that
// demand (Reset + AddTree*) performs zero heap allocations.
func TestPackedBuilderZeroAllocSteadyState(t *testing.T) {
	g, err := minmix.Build(protocols.PCR16().Ratio)
	if err != nil {
		t.Fatal(err)
	}
	b := NewPackedBuilder(g)
	warm := func() {
		b.Reset(g)
		for i := 0; i < 10; i++ {
			b.AddTree()
		}
	}
	warm() // grow the arenas once
	allocs := testing.AllocsPerRun(100, warm)
	if allocs != 0 {
		t.Fatalf("warm packed build allocates %.1f objects per run, want 0", allocs)
	}
}

// TestPackedStatsZeroAlloc proves stats over a packed forest are free.
func TestPackedStatsZeroAlloc(t *testing.T) {
	g, err := minmix.Build(protocols.PCR16().Ratio)
	if err != nil {
		t.Fatal(err)
	}
	b := NewPackedBuilder(g)
	pf, err := BuildPacked(b, g, 20)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int64, g.Target.N())
	allocs := testing.AllocsPerRun(100, func() { pf.PackedStats(0, buf) })
	if allocs != 0 {
		t.Fatalf("PackedStats allocates %.1f objects per run, want 0", allocs)
	}
}

// TestPackedArenaOverflowGuard proves absurd demands are refused up front
// instead of silently overflowing the arena's int32 task indices.
func TestPackedArenaOverflowGuard(t *testing.T) {
	g, err := minmix.Build(protocols.PCR16().Ratio)
	if err != nil {
		t.Fatal(err)
	}
	b := NewPackedBuilder(g)
	_, err = BuildPacked(b, g, 2_000_000_000)
	if !errors.Is(err, ErrArenaOverflow) {
		t.Fatalf("BuildPacked(D=2e9) err = %v, want ErrArenaOverflow", err)
	}
	if _, err := BuildPacked(b, g, 20); err != nil {
		t.Fatalf("builder unusable after rejected demand: %v", err)
	}
}

// BenchmarkBuildPacked times a packed forest build of the PCR master-mix at
// D=20 and D=200 on one reused builder, so every iteration after the first
// runs in warm arenas (TestPackedBuilderZeroAllocSteadyState pins that such
// a build allocates nothing).
func BenchmarkBuildPacked(b *testing.B) {
	g, err := minmix.Build(protocols.PCR16().Ratio)
	if err != nil {
		b.Fatal(err)
	}
	builder := NewPackedBuilder(g)
	for _, d := range []int{20, 200} {
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildPacked(builder, g, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
