// Package parallel is the repository's small deterministic fan-out
// primitive: a bounded worker pool over an input slice with input-ordered
// results and first-error cancellation.
//
// The population sweeps of internal/experiments and internal/synth are
// embarrassingly parallel — thousands of independent (ratio, demand, scheme)
// evaluations — but their outputs must stay byte-identical to the historical
// sequential implementations (EXPERIMENTS.md records paper-vs-measured
// values, and floating-point accumulation is order-sensitive). Map therefore
// never exposes completion order: results land in a pre-sized slice at their
// input index, and callers reduce them in input order, which reproduces the
// sequential accumulation exactly.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the default worker count for n items: GOMAXPROCS capped by
// n, and at least 1. Passing workers <= 1 to MapN/ForEachN selects the plain
// sequential loop, so every Map and ForEach runs single-goroutine under
// GOMAXPROCS=1.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map applies fn to every item with Workers(len(items)) workers and returns
// the results in input order. See MapN for the error contract.
func Map[I, O any](items []I, fn func(i int, item I) (O, error)) ([]O, error) {
	return MapN(Workers(len(items)), items, fn)
}

// MapN applies fn to every item using at most workers goroutines and returns
// the results in input order; out[i] is fn(i, items[i]).
//
// On failure MapN returns a nil slice and the error of the lowest-indexed
// item among those that failed. The first error observed also cancels the
// pool: workers finish their in-flight item and stop picking up new ones, so
// fn may not be invoked for every index. fn must be safe for concurrent
// invocation on distinct indices.
func MapN[I, O any](workers int, items []I, fn func(i int, item I) (O, error)) ([]O, error) {
	out := make([]O, len(items))
	if len(items) == 0 {
		return out, nil
	}
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		for i := range items {
			o, err := fn(i, items[i])
			if err != nil {
				return nil, err
			}
			out[i] = o
		}
		return out, nil
	}

	var (
		next    atomic.Int64 // next input index to claim
		stop    atomic.Bool  // set on first error; workers drain out
		mu      sync.Mutex   // guards errIdx / firstErr
		errIdx  = -1
		firstEr error
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				o, err := fn(i, items[i])
				if err != nil {
					mu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, firstEr = i, err
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
				out[i] = o
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	return out, nil
}

// ForEach applies fn to every item with Workers(len(items)) workers. See
// ForEachN.
func ForEach[I any](items []I, fn func(i int, item I) error) error {
	return ForEachN(Workers(len(items)), items, fn)
}

// ForEachN is MapN without per-item results: it applies fn to every item
// using at most workers goroutines and returns the error of the
// lowest-indexed failing item (cancelling the pool on first failure).
func ForEachN[I any](workers int, items []I, fn func(i int, item I) error) error {
	_, err := MapN(workers, items, func(i int, item I) (struct{}, error) {
		return struct{}{}, fn(i, item)
	})
	return err
}
