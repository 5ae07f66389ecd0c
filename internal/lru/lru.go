// Package lru is the one least-recently-used map behind every bounded memo
// in the stack: the plan cache's plans and demand scans, the engine's base
// graphs and Mlb values, and the router's transport-cost matrices.
//
// A Cache is not synchronised. Each owner guards its caches with a lock of
// its own, so it can keep counters, check-then-insert steps and several
// tables consistent under one critical section.
package lru

// Cache is a map bounded to a fixed number of entries that evicts the least
// recently used one when full. Construct with New.
type Cache[K comparable, V any] struct {
	cap   int
	items map[K]*entry[K, V]
	// root is the sentinel of a circular doubly linked list: root.next is
	// the most recently used entry, root.prev the least.
	root entry[K, V]
}

type entry[K comparable, V any] struct {
	prev, next *entry[K, V]
	key        K
	val        V
}

// New returns an empty cache bounded to capacity entries (minimum 1).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	c := &Cache[K, V]{cap: max(capacity, 1)}
	c.Purge()
	return c
}

// Get returns the value cached under k and marks it most recently used. It
// allocates nothing.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	e, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.val, true
}

// Add caches v under k as the most recently used entry. It reports whether
// k was new (a refresh replaces the value in place) and whether inserting
// it evicted the least recently used entry.
func (c *Cache[K, V]) Add(k K, v V) (added, evicted bool) {
	if e, ok := c.items[k]; ok {
		e.val = v
		c.unlink(e)
		c.pushFront(e)
		return false, false
	}
	e := &entry[K, V]{key: k, val: v}
	c.items[k] = e
	c.pushFront(e)
	if len(c.items) <= c.cap {
		return true, false
	}
	last := c.root.prev
	c.unlink(last)
	delete(c.items, last.key)
	return true, true
}

// Len returns the entry count.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Cap returns the bound.
func (c *Cache[K, V]) Cap() int { return c.cap }

// Purge drops every entry.
func (c *Cache[K, V]) Purge() {
	c.items = map[K]*entry[K, V]{}
	c.root.prev, c.root.next = &c.root, &c.root
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.next.prev, c.root.next = e, e
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}
