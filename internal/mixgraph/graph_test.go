package mixgraph

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/ratio"
)

// TestNodeSize pins a base-graph node at no more than 20 bytes: every
// cached plan pins its base graph's nodes.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got > 20 {
		t.Fatalf("Node is %d bytes, want <= 20", got)
	}
}

// TestNodePointerFree fails if Node gains a field the garbage collector
// must scan, so a graph's node array stays noscan.
func TestNodePointerFree(t *testing.T) {
	var scan func(reflect.Type) string
	scan = func(ty reflect.Type) string {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			return ty.String()
		case reflect.Array:
			return scan(ty.Elem())
		case reflect.Struct:
			for i := range ty.NumField() {
				if bad := scan(ty.Field(i).Type); bad != "" {
					return ty.Field(i).Name + " " + bad
				}
			}
		}
		return ""
	}
	if bad := scan(reflect.TypeFor[Node]()); bad != "" {
		t.Fatalf("Node holds a pointer-carrying field: %s", bad)
	}
}

// buildPCRTree hand-builds the MM mixing tree of Fig. 1 for the PCR
// master-mix ratio 2:1:1:1:1:1:9 (d = 4):
//
//	m15 = x2+x3, m16 = x6+x7, m17 = x4+x5          (level 1)
//	m13 = m15+m16, m14 = m17+x1                    (level 2)
//	m12 = m13+m14                                  (level 3)
//	m11 = m12+x7                                   (level 4, root)
func buildPCRTree(t *testing.T) *Graph {
	t.Helper()
	r := ratio.MustParse("2:1:1:1:1:1:9")
	b := NewBuilder(r)
	m15 := b.Mix(b.Leaf(1), b.Leaf(2))
	m16 := b.Mix(b.Leaf(5), b.Leaf(6))
	m17 := b.Mix(b.Leaf(3), b.Leaf(4))
	m13 := b.Mix(m15, m16)
	m14 := b.Mix(m17, b.Leaf(0))
	m12 := b.Mix(m13, m14)
	m11 := b.Mix(m12, b.Leaf(6))
	g, err := b.Build(m11, "MM")
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestPCRTreeStats(t *testing.T) {
	g := buildPCRTree(t)
	s := g.Stats()
	if s.Mixes != 7 {
		t.Errorf("Mixes = %d, want 7", s.Mixes)
	}
	if s.Depth != 4 {
		t.Errorf("Depth = %d, want 4", s.Depth)
	}
	wantInputs := []int64{1, 1, 1, 1, 1, 1, 2}
	for i, w := range wantInputs {
		if s.Inputs[i] != w {
			t.Errorf("Inputs[%d] = %d, want %d", i, s.Inputs[i], w)
		}
	}
	if s.InputTotal != 8 {
		t.Errorf("InputTotal = %d, want 8", s.InputTotal)
	}
	if s.Waste != 6 {
		t.Errorf("Waste = %d, want 6 (= I - 2)", s.Waste)
	}
	if s.Shared != 0 {
		t.Errorf("Shared = %d, want 0 for a plain tree", s.Shared)
	}
}

func TestConservation(t *testing.T) {
	g := buildPCRTree(t)
	s := g.Stats()
	if s.InputTotal != s.Waste+2 {
		t.Errorf("conservation violated: I=%d, W=%d", s.InputTotal, s.Waste)
	}
}

func TestWastesList(t *testing.T) {
	g := buildPCRTree(t)
	w := g.Wastes()
	if len(w) != 6 {
		t.Fatalf("len(Wastes) = %d, want 6", len(w))
	}
	levels := map[int]int{}
	for _, id := range w {
		levels[int(g.Nodes[id].Level)]++
	}
	// Fig. 1: wastes at level 1 (m15,m16,m17), level 2 (m13,m14), level 3 (m12).
	if levels[1] != 3 || levels[2] != 2 || levels[3] != 1 {
		t.Errorf("waste level histogram = %v, want map[1:3 2:2 3:1]", levels)
	}
}

func TestRootVector(t *testing.T) {
	g := buildPCRTree(t)
	if root := g.Vectors()[g.Root.ID]; !root.Equal(g.Target.Vector()) {
		t.Errorf("root vec %v != target %v", root, g.Target.Vector())
	}
}

func TestLevelWidths(t *testing.T) {
	g := buildPCRTree(t)
	w := g.LevelWidths()
	want := []int{3, 2, 1, 1}
	if len(w) != len(want) {
		t.Fatalf("LevelWidths = %v, want %v", w, want)
	}
	for i := range want {
		if w[i] != want[i] {
			t.Errorf("LevelWidths[%d] = %d, want %d", i, w[i], want[i])
		}
	}
}

func TestBFSLabels(t *testing.T) {
	g := buildPCRTree(t)
	labels := BFSLabels(g, 1)
	if got := labels[g.Root.ID]; got != "m1,1" {
		t.Errorf("root label = %q, want m1,1", got)
	}
	mixes := 0
	for _, l := range labels {
		if l != "" {
			mixes++
		}
	}
	if mixes != 7 {
		t.Errorf("labelled %d mixes, want 7", mixes)
	}
	// The root's mix child is m1,2.
	if got := labels[g.Root.Children[0]]; got != "m1,2" {
		t.Errorf("root's mix child label = %q, want m1,2", got)
	}
}

func TestBuildRejectsWrongRoot(t *testing.T) {
	r := ratio.MustNew(1, 1)
	b := NewBuilder(r)
	l := b.Leaf(0)
	m := b.Mix(l, b.Leaf(0)) // pure x1: wrong target
	if _, err := b.Build(m, "bad"); err == nil {
		t.Error("Build accepted a root not matching the target")
	}
}

func TestBuildRejectsUnreachable(t *testing.T) {
	r := ratio.MustNew(1, 1)
	b := NewBuilder(r)
	root := b.Mix(b.Leaf(0), b.Leaf(1))
	b.Leaf(0) // orphan
	if _, err := b.Build(root, "bad"); err == nil {
		t.Error("Build accepted an unreachable node")
	}
}

func TestBuildRejectsConsumedRoot(t *testing.T) {
	r := ratio.MustNew(2, 2)
	b := NewBuilder(r)
	m1 := b.Mix(b.Leaf(0), b.Leaf(1))
	root := b.Mix(m1, m1) // mixing both outputs of m1: same CF as m1
	if _, err := b.Build(m1, "bad"); err == nil {
		t.Error("Build accepted a root with consumed outputs")
	}
	_ = root
}

func TestBuildRejectsLeafRoot(t *testing.T) {
	r := ratio.MustNew(1, 1)
	b := NewBuilder(r)
	l := b.Leaf(0)
	if _, err := b.Build(l, "bad"); err == nil {
		t.Error("Build accepted a leaf root")
	}
}

// TestBuildNilRoot: a root ID the builder never handed out, negative or
// past the last node, is no root.
func TestBuildNilRoot(t *testing.T) {
	for _, root := range []int32{-1, 0, 3} {
		b := NewBuilder(ratio.MustNew(1, 1))
		if root > 0 {
			b.Mix(b.Leaf(0), b.Leaf(1))
		}
		if _, err := b.Build(root, "bad"); !errors.Is(err, ErrNoRoot) {
			t.Errorf("Build(%d) = %v, want %v", root, err, ErrNoRoot)
		}
	}
}

// TestMixPanicsOnOutOfRangeOperand: Mix refuses an ID the builder has not
// handed out.
func TestMixPanicsOnOutOfRangeOperand(t *testing.T) {
	for _, bad := range []int32{-1, 1} {
		func() {
			b := NewBuilder(ratio.MustNew(1, 1))
			l := b.Leaf(0)
			defer func() {
				if recover() == nil {
					t.Errorf("Mix(%d, %d) did not panic", l, bad)
				}
			}()
			b.Mix(l, bad)
		}()
	}
}

func TestMixPanicsOnOverConsumption(t *testing.T) {
	b := NewBuilder(ratio.MustNew(2, 2))
	l := b.Leaf(0)
	b.Mix(l, b.Leaf(1))
	defer func() {
		if recover() == nil {
			t.Error("second consumption of a leaf output did not panic")
		}
	}()
	b.Mix(l, b.Leaf(1)) // a leaf dispenses exactly one droplet
}

func TestSharedSubtreeDAG(t *testing.T) {
	// 1:1:2 over {x1,x2,x3}: m1 = x1+x2 (<1:1:0>/2); root needs m1 and x3:
	// root = m1+x3 = <1:1:2>/4. Build a DAG where m1's second output also
	// feeds another mix to exercise Shared accounting.
	r := ratio.MustNew(1, 1, 2)
	b := NewBuilder(r)
	m1 := b.Mix(b.Leaf(0), b.Leaf(1))
	mid := b.Mix(m1, b.Leaf(2)) // <1:1:2>/4 = target
	root := b.Mix(mid, m1)      // avg(<1:1:2>/4, <2:2:0>/4) = <3:3:2>/8 — not target
	if _, err := b.Build(root, "dag"); err == nil {
		t.Error("Build accepted wrong-target DAG root")
	}
	// Rebuild correctly: two independent sub-mixes sharing a common subtree.
	b2 := NewBuilder(ratio.MustNew(1, 1, 1, 1))
	s := b2.Mix(b2.Leaf(0), b2.Leaf(1)) // <1:1:0:0>/2, shared
	t1 := b2.Mix(s, b2.Leaf(2))         // <1:1:2:0>/4
	t2 := b2.Mix(s, b2.Leaf(3))         // <1:1:0:2>/4
	rt := b2.Mix(t1, t2)                // <2:2:2:2>/8 = <1:1:1:1>/4
	g, err := b2.Build(rt, "dag")
	if err != nil {
		t.Fatalf("Build shared DAG: %v", err)
	}
	st := g.Stats()
	if st.Shared != 1 {
		t.Errorf("Shared = %d, want 1", st.Shared)
	}
	if st.InputTotal != 4 || st.Waste != 2 {
		t.Errorf("I=%d W=%d, want 4 and 2", st.InputTotal, st.Waste)
	}
}

func TestRenderSmoke(t *testing.T) {
	g := buildPCRTree(t)
	out := g.Render()
	for _, want := range []string{"m1,1", "m1,7", "x7", "(input)", "2:1:1:1:1:1:9"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestDOTSmoke(t *testing.T) {
	g := buildPCRTree(t)
	out := g.DOT()
	for _, want := range []string{"digraph", "waste", "doublecircle", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	if got := strings.Count(out, "style=dashed"); got != 6 {
		t.Errorf("DOT waste edges = %d, want 6", got)
	}
}

func TestKindString(t *testing.T) {
	if Leaf.String() != "leaf" || Mix.String() != "mix" {
		t.Error("Kind.String mismatch")
	}
	if Kind(9).String() == "" {
		t.Error("unknown Kind should still render")
	}
}
