package ratio

import (
	"strings"
	"testing"
)

func TestNewValid(t *testing.T) {
	r, err := New(2, 1, 1, 1, 1, 1, 9)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := r.Sum(); got != 16 {
		t.Errorf("Sum = %d, want 16", got)
	}
	if got := r.Depth(); got != 4 {
		t.Errorf("Depth = %d, want 4", got)
	}
	if got := r.N(); got != 7 {
		t.Errorf("N = %d, want 7", got)
	}
}

func TestNewErrors(t *testing.T) {
	cases := []struct {
		name  string
		parts []int64
	}{
		{"empty", nil},
		{"zero part", []int64{1, 0, 3}},
		{"negative part", []int64{2, -1, 3}},
		{"sum not pow2", []int64{1, 2}},
		{"sum not pow2 big", []int64{5, 5, 5}},
	}
	for _, c := range cases {
		if _, err := New(c.parts...); err == nil {
			t.Errorf("New(%v) succeeded, want error (%s)", c.parts, c.name)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{"2:1:1:1:1:1:9", "1:1", "128:123:5", "26:21:2:2:3:3:199"} {
		r, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := r.String(); got != s {
			t.Errorf("String() = %q, want %q", got, s)
		}
	}
}

func TestParseWhitespace(t *testing.T) {
	r, err := Parse(" 2 : 1:1 :1: 1:1:9 ")
	if err != nil {
		t.Fatalf("Parse with whitespace: %v", err)
	}
	if !r.Equal(MustParse("2:1:1:1:1:1:9")) {
		t.Errorf("parsed %v, want 2:1:1:1:1:1:9", r)
	}
}

func TestParseErrors(t *testing.T) {
	// "1:+3" is deliberately absent: explicit '+' signs are valid integer
	// spellings (see TestParseSpellings), which the historical
	// Sscanf+Sprintf round-trip wrongly rejected.
	for _, s := range []string{"", "a:b", "1:2:x", "1.5:2.5", "1:-3", "1:+-3", "2::2"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestNames(t *testing.T) {
	r := MustParse("2:1:1:1:1:1:9")
	if got := r.Name(0); got != "x1" {
		t.Errorf("default Name(0) = %q, want x1", got)
	}
	if got := r.Name(6); got != "x7" {
		t.Errorf("default Name(6) = %q, want x7", got)
	}
	named, err := r.WithNames("buffer", "dNTPs", "fwd", "rev", "template", "optimase", "water")
	if err != nil {
		t.Fatalf("WithNames: %v", err)
	}
	if got := named.Name(6); got != "water" {
		t.Errorf("Name(6) = %q, want water", got)
	}
	if r.Named() || !named.Named() || !named.Clone().Named() {
		t.Errorf("Named: plain %v, named %v", r.Named(), named.Named())
	}
	if _, err := r.WithNames("too", "few"); err == nil {
		t.Error("WithNames with wrong arity succeeded, want error")
	}
	// The original must be unaffected (value semantics).
	if got := r.Name(0); got != "x1" {
		t.Errorf("original mutated: Name(0) = %q", got)
	}
}

func TestNormalized(t *testing.T) {
	r := MustNew(16, 16)
	n := r.Normalized()
	if want := MustNew(1, 1); !n.Equal(want) {
		t.Errorf("Normalized(16:16) = %v, want 1:1", n)
	}
	if n.Depth() != 1 {
		t.Errorf("Depth = %d, want 1", n.Depth())
	}
	r2 := MustNew(2, 1, 1, 1, 1, 1, 9)
	if !r2.Normalized().Equal(r2) {
		t.Errorf("Normalized changed an already-reduced ratio")
	}
	r3 := MustNew(4, 8, 4)
	if want := MustNew(1, 2, 1); !r3.Normalized().Equal(want) {
		t.Errorf("Normalized(4:8:4) = %v, want 1:2:1", r3.Normalized())
	}
}

func TestCloneIndependence(t *testing.T) {
	r := MustNew(2, 2)
	c := r.Clone()
	c.parts[0] = 99
	if r.Part(0) != 2 {
		t.Error("Clone shares backing storage with original")
	}
}

func TestPartsCopy(t *testing.T) {
	r := MustNew(2, 2)
	p := r.Parts()
	p[0] = 99
	if r.Part(0) != 2 {
		t.Error("Parts() exposes internal storage")
	}
}

func TestRatioVector(t *testing.T) {
	r := MustParse("2:1:1:1:1:1:9")
	v := r.Vector()
	if v.Exp() != 4 {
		t.Fatalf("Exp = %d, want 4", v.Exp())
	}
	want := []int64{2, 1, 1, 1, 1, 1, 9}
	for i, w := range want {
		if v.Num(i) != w {
			t.Errorf("Num(%d) = %d, want %d", i, v.Num(i), w)
		}
	}
}

func TestEqualIgnoresNames(t *testing.T) {
	a := MustNew(1, 1)
	b, _ := MustNew(1, 1).WithNames("s", "b")
	if !a.Equal(b) {
		t.Error("Equal should ignore names")
	}
	if a.Equal(MustNew(2, 1, 1)) {
		t.Error("Equal across different lengths")
	}
	if a.Equal(MustNew(2, 2)) {
		t.Error("Equal across different parts")
	}
}

func TestStringFormat(t *testing.T) {
	if got := MustNew(1, 3, 4).String(); got != "1:3:4" {
		t.Errorf("String = %q", got)
	}
	if strings.Contains(MustNew(10, 6).String(), " ") {
		t.Error("String should not contain spaces")
	}
	// Every constructor renders from the parts, never from input text.
	r := MustParse(" 04 : +4:8")
	named, err := r.WithNames("a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		r    Ratio
		want string
	}{
		{r, "4:4:8"},
		{r.Clone(), "4:4:8"},
		{named, "4:4:8"},
		{r.Normalized(), "1:1:2"},
		{r.Normalized().Normalized(), "1:1:2"},
		{MustFromPercent([]float64{50, 25, 25}, 4), "8:4:4"},
		{Ratio{}, ""},
	} {
		if got := c.r.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

// TestStringZeroAlloc proves String is free: the serving layer reads it for
// the plan-cache key, the base-graph cache key and the spec key of every
// request.
func TestStringZeroAlloc(t *testing.T) {
	r := MustParse("2:1:1:1:1:1:9")
	if allocs := testing.AllocsPerRun(100, func() { _ = r.String() }); allocs != 0 {
		t.Fatalf("String allocates %.1f objects per call, want 0", allocs)
	}
}
