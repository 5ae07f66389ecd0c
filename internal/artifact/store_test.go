package artifact

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/protocols"
)

func TestStoreRoundTrip(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	k, p := buildPlan(t, core.MM, protocols.PCR16().Ratio, 5, 3, "MMS")
	data, err := Encode(k, p)
	if err != nil {
		t.Fatal(err)
	}
	addr := AddressFor(k)
	if _, ok := s.Get(addr); ok {
		t.Fatal("empty store hit")
	}
	if err := s.Put(addr, data); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(addr)
	if !ok {
		t.Fatal("stored artifact missing")
	}
	if _, err := DecodeVerified(got); err != nil {
		t.Fatalf("stored artifact fails verification: %v", err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

// TestStoreSurvivesRestart: the warm tier's point — a reopened store still
// serves artifacts written before the restart.
func TestStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	k, p := buildPlan(t, core.RMA, protocols.PCR16().Ratio, 4, 2, "SRS")
	data, _ := Encode(k, p)
	if err := s.Put(AddressFor(k), data); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(AddressFor(k)); !ok {
		t.Fatal("artifact lost across restart")
	}
}

func TestStoreRejectsHostileAddresses(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []string{
		"", "..", "../../etc/passwd", "abc", strings.Repeat("Z", 64),
		strings.Repeat("a", 63) + "/", strings.Repeat("a", 65),
	} {
		if err := s.Put(addr, []byte("x")); err == nil {
			t.Fatalf("Put(%q) accepted", addr)
		}
		if _, ok := s.Get(addr); ok {
			t.Fatalf("Get(%q) hit", addr)
		}
	}
}

func TestStoreEvictsOldestFirst(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 3)
	for i := range addrs {
		addrs[i] = strings.Repeat("0", 63) + string(rune('a'+i))
		if err := s.Put(addrs[i], []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes even on coarse-clock filesystems.
		time.Sleep(5 * time.Millisecond)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if _, ok := s.Get(addrs[0]); ok {
		t.Fatal("oldest artifact not evicted")
	}
	for _, addr := range addrs[1:] {
		if _, ok := s.Get(addr); !ok {
			t.Fatalf("recent artifact %s evicted", addr)
		}
	}
}

func TestStoreIgnoresTempLitter(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-Put leaves a temp file behind; it must not count or serve.
	if err := os.WriteFile(filepath.Join(dir, tmpPrefix+"orphan"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("temp litter counted: Len = %d", s.Len())
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	if err := s.Put(strings.Repeat("a", 64), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(strings.Repeat("a", 64)); ok {
		t.Fatal("nil store hit")
	}
	if s.Len() != 0 || s.Dir() != "" {
		t.Fatal("nil store not inert")
	}
}

// TestStoreKeepsWriteOrderAcrossRestart: a reopened store evicts in the
// write order of the files it found, down to its bound at open, and a file
// removed by hand only drops out of that order at its turn.
func TestStoreKeepsWriteOrderAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	addr := func(c byte) string { return strings.Repeat("0", 63) + string(c) }
	for _, c := range []byte("abc") {
		if err := s.Put(addr(c), []byte{c}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond) // distinct mtimes
	}
	held := func(s *Store, want string) {
		t.Helper()
		got := ""
		for _, c := range []byte("abcde") {
			if _, ok := s.Get(addr(c)); ok {
				got += string(c)
			}
		}
		if got != want || s.Len() != len(want) {
			t.Fatalf("store holds %q (Len %d), want %q", got, s.Len(), want)
		}
	}
	s2, err := OpenStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	held(s2, "bc")
	if err := os.Remove(filepath.Join(dir, addr('c')+ext)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Put(addr('d'), []byte{'d'}); err != nil {
		t.Fatal(err)
	}
	held(s2, "d")
	if err := s2.Put(addr('e'), []byte{'e'}); err != nil {
		t.Fatal(err)
	}
	held(s2, "de")
}
