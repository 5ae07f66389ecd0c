package lru

import "testing"

// TestEvictsLeastRecentlyUsed: a full cache evicts the entry touched least
// recently, where both Get and a refreshing Add count as a touch.
func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](3)
	for i, k := range []string{"a", "b", "c"} {
		if added, evicted := c.Add(k, i); !added || evicted {
			t.Fatalf("Add(%s) = added %v, evicted %v; want a fresh insert", k, added, evicted)
		}
	}
	if v, ok := c.Get("a"); !ok || v != 0 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if added, evicted := c.Add("b", 10); added || evicted {
		t.Fatalf("refreshing Add(b) = added %v, evicted %v; want neither", added, evicted)
	}
	// c is now the least recently used entry.
	if added, evicted := c.Add("d", 3); !added || !evicted {
		t.Fatalf("Add(d) on a full cache = added %v, evicted %v; want both", added, evicted)
	}
	if _, ok := c.Get("c"); ok {
		t.Error("c survived; it was the least recently used entry")
	}
	for k, want := range map[string]int{"a": 0, "b": 10, "d": 3} {
		if v, ok := c.Get(k); !ok || v != want {
			t.Errorf("Get(%s) = %d, %v; want %d", k, v, ok, want)
		}
	}
	if c.Len() != 3 || c.Cap() != 3 {
		t.Errorf("Len, Cap = %d, %d; want 3, 3", c.Len(), c.Cap())
	}
}

// TestWarmEntrySurvivesChurn: an entry touched between inserts outlives any
// number of colder ones.
func TestWarmEntrySurvivesChurn(t *testing.T) {
	c := New[int, int](4)
	c.Add(-1, -1)
	for i := 0; i < 1000; i++ {
		c.Add(i, i)
		if _, ok := c.Get(-1); !ok {
			t.Fatalf("warm entry evicted after %d inserts", i+1)
		}
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d, want the bound 4", c.Len())
	}
}

func TestPurgeAndMinimumCapacity(t *testing.T) {
	c := New[string, int](0)
	if c.Cap() != 1 {
		t.Fatalf("Cap = %d, want the minimum 1", c.Cap())
	}
	c.Add("a", 1)
	c.Add("b", 2)
	if _, ok := c.Get("a"); ok || c.Len() != 1 {
		t.Fatalf("capacity-1 cache kept a (Len %d)", c.Len())
	}
	c.Purge()
	if _, ok := c.Get("b"); ok || c.Len() != 0 {
		t.Fatalf("Purge left %d entries", c.Len())
	}
	c.Add("c", 3)
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Fatalf("Get(c) after Purge = %d, %v", v, ok)
	}
}

// TestGetAllocs pins the hit and miss paths at zero allocations: the plan
// cache serves every warm plan request through them.
func TestGetAllocs(t *testing.T) {
	type key struct {
		s string
		n int
	}
	c := New[key, *int](8)
	v := 1
	for i := 0; i < 8; i++ {
		c.Add(key{"k", i}, &v)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get(key{"k", 3}); !ok {
			t.Fatal("miss")
		}
		if _, ok := c.Get(key{"k", 99}); ok {
			t.Fatal("hit")
		}
	}); allocs != 0 {
		t.Fatalf("Get allocates %.1f objects, want 0", allocs)
	}
}
