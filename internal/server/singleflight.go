package server

import (
	"context"
	"errors"
	"sync"

	"repro/internal/cancel"
	"repro/internal/obs"
)

// flightGroup coalesces concurrent invocations that share a key: one leader
// runs the build, every concurrent duplicate waits for the leader's result
// instead of repeating the work. It is a minimal single-flight tailored to
// the server's stateless planning path (plans are pure functions of the
// request fingerprint, so sharing a result across callers is always sound —
// the plan cache below deduplicates across time, the flight group
// deduplicates across in-flight concurrency).
//
// A waiting duplicate honours its own context: if the caller's deadline
// expires before the leader finishes, the duplicate abandons the wait with a
// typed cancellation error while the leader keeps running for the others.
// The leader runs under its own request context; if the leader is canceled,
// followers receive the leader's (typed, cancellation-wrapping) error and
// the next request starts a fresh flight. A leader that panics still ends
// its flight: followers receive errLeaderPanicked, the key is free for the
// next request, and the panic continues up the leader's own stack.
type flightGroup struct {
	mu sync.Mutex
	m  map[specKey]*flight
}

type flight struct {
	done chan struct{}
	val  any
	err  error
}

// errLeaderPanicked is what followers of a flight whose leader panicked
// receive.
var errLeaderPanicked = errors.New("server: coalesced request failed: its leader panicked")

// do returns the result of fn for key, coalescing concurrent duplicates.
// The boolean reports whether the result was shared (this caller was a
// follower, not the leader); a follower's successful share counts in
// server.flights.coalesced.
func (g *flightGroup) do(ctx context.Context, key specKey, fn func() (any, error)) (any, error, bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[specKey]*flight{}
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-f.done:
			if f.err == nil {
				obs.Inc("server.flights.coalesced")
			}
			return f.val, f.err, true
		case <-ctx.Done():
			return nil, cancel.Check(ctx), true
		}
	}
	// err stays errLeaderPanicked unless fn returns.
	f := &flight{done: make(chan struct{}), err: errLeaderPanicked}
	g.m[key] = f
	g.mu.Unlock()

	// Deferred so a panicking fn still ends the flight.
	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = fn()
	return f.val, f.err, false
}

// drain waits for every in-flight leader to finish. Membership changes call
// it so no build keyed against the old ring is still running when sessions
// migrate under the new one. New flights may start during the wait; drain
// only guarantees the flights visible at its snapshot are done.
func (g *flightGroup) drain() {
	g.mu.Lock()
	waits := make([]chan struct{}, 0, len(g.m))
	for _, f := range g.m {
		waits = append(waits, f.done)
	}
	g.mu.Unlock()
	for _, ch := range waits {
		<-ch
	}
}
