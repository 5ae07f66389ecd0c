package core

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/ratio"
	"repro/internal/stream"
)

// TestEngineConcurrentRequestsRace is the regression test for the engine's
// latent data race: Request/requestPersistent mutated emitted, elapsed and
// batches (and the persistent builder) with no synchronization, safe only by
// single-goroutine convention. With the internal mutex, N goroutines
// hammering one engine must produce a torn-free timeline: run it under
// `go test -race ./internal/core` (make race includes the package).
func TestEngineConcurrentRequestsRace(t *testing.T) {
	for _, persist := range []bool{false, true} {
		name := "streaming"
		if persist {
			name = "persistent-pool"
		}
		t.Run(name, func(t *testing.T) {
			e, err := New(Config{
				Target:      ratio.MustParse("2:1:1:1:1:1:9"),
				Scheduler:   stream.SRS,
				PersistPool: persist,
			})
			if err != nil {
				t.Fatal(err)
			}
			const goroutines = 16
			const perG = 8
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						if _, err := e.Request(2 + 2*(g%3)); err != nil {
							errs <- err
							return
						}
						// Interleave the read-side accessors: they race with
						// the writers unless they share the mutex.
						_ = e.Emitted()
						_ = e.Elapsed()
						_ = e.Emissions()
						_ = e.PoolSize()
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			batches := e.Batches()
			if len(batches) != goroutines*perG {
				t.Fatalf("recorded %d batches, want %d", len(batches), goroutines*perG)
			}
			// The timeline must tile exactly: sorting batches by StartCycle,
			// each batch starts right after its predecessor ends, and the
			// aggregate counters match the per-batch sums.
			sort.Slice(batches, func(i, j int) bool { return batches[i].StartCycle < batches[j].StartCycle })
			next, emitted := 1, 0
			for i, b := range batches {
				if b.StartCycle != next {
					t.Fatalf("batch %d starts at cycle %d, want %d (torn timeline)", i, b.StartCycle, next)
				}
				next += b.Result.TotalCycles
				emitted += b.Result.Emitted
			}
			if got := e.Elapsed(); got != next-1 {
				t.Fatalf("Elapsed() = %d, want %d", got, next-1)
			}
			if got := e.Emitted(); got != emitted {
				t.Fatalf("Emitted() = %d, want %d", got, emitted)
			}
		})
	}

	// An earlier persistent batch is read while later Requests grow the
	// forest: its plan's forest and schedule must be its own, never
	// written by a later batch, and read the same throughout.
	t.Run("persistent-earlier-batch", func(t *testing.T) {
		e, err := New(Config{Target: pcr, PersistPool: true})
		if err != nil {
			t.Fatal(err)
		}
		b0, err := e.Request(3)
		if err != nil {
			t.Fatal(err)
		}
		plan := b0.Result.Passes[0].Plan
		want := fmt.Sprint(plan.Forest().Stats())
		done := make(chan error, 1)
		go func() {
			for i := 0; i < 200; i++ {
				if _, err := e.Request(1 + i%5); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		for {
			f := plan.Forest()
			if got := fmt.Sprint(f.Stats()); got != want {
				t.Fatalf("batch 0 forest stats %s, were %s", got, want)
			}
			if err := f.Validate(); err != nil {
				t.Fatalf("batch 0 forest: %v", err)
			}
			if err := plan.Schedule().Validate(); err != nil {
				t.Fatalf("batch 0 schedule: %v", err)
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				return
			default:
			}
		}
	})
}
