package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/forest"
	"repro/internal/sched"
	"repro/internal/stream"
)

func TestPersistentPoolReusesWasteAcrossRequests(t *testing.T) {
	// Four requests of 4 droplets each = 16 = 2^d: with the pool persisted
	// the total input usage must equal one D=16 forest — exactly 16
	// droplets in the target proportions, zero waste.
	e, err := New(Config{Target: pcr, PersistPool: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var inputs, waste int64
	for i := 0; i < 4; i++ {
		b, err := e.Request(4)
		if err != nil {
			t.Fatalf("Request %d: %v", i, err)
		}
		inputs += b.Result.TotalInputs
		waste += b.Result.TotalWaste
	}
	if inputs != 16 {
		t.Errorf("total inputs = %d, want 16 (one full cycle)", inputs)
	}
	if waste != 0 {
		t.Errorf("total waste = %d, want 0", waste)
	}
	if e.PoolSize() != 0 {
		t.Errorf("pool size = %d after a full cycle, want 0", e.PoolSize())
	}
	if e.Emitted() != 16 {
		t.Errorf("emitted = %d, want 16", e.Emitted())
	}
	if err := e.Forest().Validate(); err != nil {
		t.Errorf("forest invalid: %v", err)
	}
}

func TestPersistentBeatsNonPersistent(t *testing.T) {
	requests := []int{4, 4, 4, 4}
	run := func(persist bool) (inputs int64) {
		e, err := New(Config{Target: pcr, PersistPool: persist})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for _, n := range requests {
			b, err := e.Request(n)
			if err != nil {
				t.Fatalf("Request: %v", err)
			}
			inputs += b.Result.TotalInputs
		}
		return inputs
	}
	persistent, oneShot := run(true), run(false)
	if persistent >= oneShot {
		t.Errorf("persistent inputs %d not below non-persistent %d", persistent, oneShot)
	}
}

func TestPersistentSchedulesValid(t *testing.T) {
	for _, scheduler := range []stream.Scheduler{stream.MMS, stream.SRS} {
		e, err := New(Config{Target: pcr, PersistPool: true, Scheduler: scheduler})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for _, n := range []int{6, 2, 10, 3} {
			b, err := e.Request(n)
			if err != nil {
				t.Fatalf("%s Request(%d): %v", scheduler, n, err)
			}
			s := b.Result.Passes[0].Schedule
			if err := s.Validate(); err != nil {
				t.Errorf("%s: invalid incremental schedule: %v", scheduler, err)
			}
			if s.FirstTask == 0 && e.Emitted() > b.Result.Emitted {
				t.Errorf("%s: later window not marked incremental", scheduler)
			}
		}
	}
}

func TestPersistentStorageBudgetEnforced(t *testing.T) {
	// A tiny storage budget cannot hold the pool of a large batch.
	e, err := New(Config{Target: pcr, PersistPool: true, Storage: 1, Scheduler: stream.SRS})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := e.Request(20); !errors.Is(err, ErrPersistStorage) {
		t.Errorf("want ErrPersistStorage, got %v", err)
	}
}

func TestPersistentStorageAccountsCarriedPool(t *testing.T) {
	// After a request of 2 (one base-tree pass) the pool carries 6 spares;
	// the next window must see them occupying storage from cycle 1.
	e, err := New(Config{Target: pcr, PersistPool: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := e.Request(2); err != nil {
		t.Fatalf("Request: %v", err)
	}
	if e.PoolSize() != 6 {
		t.Fatalf("pool = %d, want 6", e.PoolSize())
	}
	b, err := e.Request(2) // T2 = one mix consuming one pooled spare
	if err != nil {
		t.Fatalf("Request: %v", err)
	}
	// During that 1-cycle window, 5 spares sit in storage (the sixth is in
	// the mixer).
	if q := b.Result.Passes[0].Storage; q != 5 {
		t.Errorf("carried-pool storage = %d, want 5", q)
	}
	// The batch consumed a pooled droplet and one fresh x7.
	if b.Result.TotalInputs != 1 {
		t.Errorf("batch inputs = %d, want 1", b.Result.TotalInputs)
	}
	if b.Result.TotalWaste != -1 {
		t.Errorf("batch waste delta = %d, want -1 (one pooled droplet recovered)", b.Result.TotalWaste)
	}
}

func TestPersistentErrors(t *testing.T) {
	e, _ := New(Config{Target: pcr, PersistPool: true})
	if _, err := e.Request(0); err == nil {
		t.Error("zero request accepted")
	}
}

func TestPersistentStorageFunctionMatchesPlainOnFreshForest(t *testing.T) {
	// With startID = 0 and no retained spares... a plain forest retains all
	// its free outputs in persistent mode, so PersistentStorage >= plain
	// Algorithm 3 counting.
	e, _ := New(Config{Target: pcr, PersistPool: true})
	b, err := e.Request(20)
	if err != nil {
		t.Fatalf("Request: %v", err)
	}
	s := b.Result.Passes[0].Schedule
	if got, plain := PersistentStorage(e.Forest(), s, 0), sched.StorageUnits(s); got < plain {
		t.Errorf("persistent storage %d below plain counting %d", got, plain)
	}
}

// persistBatchValue renders everything a persistent batch promises: its
// place on the timeline, its droplet and storage accounting, and the full
// window schedule.
func persistBatchValue(b *Batch) string {
	r, p := b.Result, b.Result.Passes[0]
	s := p.Schedule
	return fmt.Sprintf("start=%d n=%d D'=%d emitted=%d Tc=%d q=%d waste=%d inputs=%d %s mc=%d first=%d tasks=%d slots=%v",
		b.StartCycle, r.Demand, r.PerPassDemand, r.Emitted, r.TotalCycles, p.Storage, r.TotalWaste, r.TotalInputs,
		s.Algorithm, s.Mixers, s.FirstTask, len(s.Forest.Tasks), s.Slots)
}

// persistReference replays requests the way the persistent pool planned
// before it scheduled its builder's packed forest: after each request's
// trees are added, the whole grown pointer forest is packed again and a
// fresh kernel schedules the new window. It returns each batch's rendering,
// stopping after the first batch over the storage budget with
// ErrPersistStorage.
func persistReference(t *testing.T, e *Engine, requests []int) ([]string, error) {
	t.Helper()
	b := forest.NewBuilder(e.base)
	elapsed := 0
	var out []string
	for _, n := range requests {
		f := b.Forest()
		start, before := len(f.Tasks), f.Stats()
		for i := 0; i < (n+1)/2; i++ {
			b.AddTree()
		}
		f = b.Forest()
		pf, err := forest.Pack(f)
		if err != nil {
			t.Fatal(err)
		}
		var k sched.Kernel
		from := k.MMSFrom
		if e.cfg.Scheduler == stream.SRS {
			from = k.SRSFrom
		}
		if err := from(pf, e.mixers, start); err != nil {
			t.Fatal(err)
		}
		s := k.Materialize(f)
		q := PersistentStorage(f, s, start)
		if e.cfg.Storage > 0 && q > e.cfg.Storage {
			return out, ErrPersistStorage
		}
		after := f.Stats()
		d := 2 * ((n + 1) / 2)
		out = append(out, persistBatchValue(&Batch{Request: n, StartCycle: elapsed + 1, Result: &stream.Result{
			Demand: n, PerPassDemand: d, Emitted: d, TotalCycles: s.Cycles,
			TotalWaste: after.Waste - before.Waste, TotalInputs: after.InputTotal - before.InputTotal,
			Passes: []stream.Pass{{Schedule: s, Storage: q}},
		}}))
		elapsed += s.Cycles
	}
	return out, nil
}

// TestPersistentMatchesPackReference checks a persistent engine's batches
// byte for byte against persistReference, for MMS and SRS over odd and even
// request sizes, with and without a storage budget that some batch exceeds.
func TestPersistentMatchesPackReference(t *testing.T) {
	requests := []int{3, 4, 1, 7, 2, 10, 5, 6, 9, 8, 2, 1, 16, 33}
	sawBudgetError := false
	for _, alg := range []Algorithm{MM, RMA} {
		for _, scheduler := range []stream.Scheduler{stream.MMS, stream.SRS} {
			for _, storage := range []int{0, 8} {
				e, err := New(Config{Target: pcr, Algorithm: alg, Scheduler: scheduler, Storage: storage, PersistPool: true})
				if err != nil {
					t.Fatal(err)
				}
				want, wantErr := persistReference(t, e, requests)
				name := fmt.Sprintf("%v/%s/q=%d", alg, scheduler, storage)
				for i, n := range requests {
					b, err := e.Request(n)
					if i == len(want) {
						if !errors.Is(err, wantErr) || wantErr == nil {
							t.Fatalf("%s request %d: err = %v, want %v", name, i, err, wantErr)
						}
						sawBudgetError = true
						break
					}
					if err != nil {
						t.Fatalf("%s request %d: %v", name, i, err)
					}
					if got := persistBatchValue(b); got != want[i] {
						t.Fatalf("%s request %d differs from the Pack reference:\n got %s\nwant %s", name, i, got, want[i])
					}
				}
			}
		}
	}
	if !sawBudgetError {
		t.Error("no storage budget was exceeded; the ErrPersistStorage path went untested")
	}
}

// BenchmarkPersistentRequest times one two-droplet Request on a persistent
// PCR engine whose pool holds a 1000-Request history. Each iteration grows
// a fresh engine to that history untimed, by one Request of 2000 droplets:
// the pool adds trees one at a time either way, so the forest, the pool and
// the timed Request's work equal those after 1000 two-droplet Requests.
func BenchmarkPersistentRequest(b *testing.B) {
	const history = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := New(Config{Target: pcr, PersistPool: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Request(2 * history); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := e.Request(2); err != nil {
			b.Fatal(err)
		}
	}
}
