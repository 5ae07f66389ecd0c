package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/forest"
	"repro/internal/plancache"
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
	var last *Batch
	for i := 0; i < 4; i++ {
		b, err := e.Request(4)
		if err != nil {
			t.Fatalf("Request %d: %v", i, err)
		}
		last = b
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
	if err := last.Result.Passes[0].Plan.Forest().Validate(); err != nil {
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
			s := b.Result.Passes[0].Plan.Schedule()
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
	s := b.Result.Passes[0].Plan.Schedule()
	got := b.Result.Passes[0].Storage
	if plain := sched.StorageUnits(s); got < plain {
		t.Errorf("persistent storage %d below plain counting %d", got, plain)
	}
	if ref := persistentStorage(s.Forest, s, 0); got != ref {
		t.Errorf("persistent storage %d, whole-forest reference %d", got, ref)
	}
}

// persistentStorage is the reference for a persistent window's peak storage
// occupancy. It walks the whole forest by producer: a hand-off to a window
// task is stored from the cycle after its producer ran (cycle 1 for an
// earlier window's droplet), and a spare still pooled stays stored to the
// window's last cycle. The engine counts the window's tasks by consumer
// and takes the carried spares from its pool instead.
func persistentStorage(f *forest.Forest, s *sched.Schedule, startID int) int {
	profile := make([]int, s.Cycles+1)
	for _, t := range f.Tasks {
		from := int(s.At(t).Cycle) + 1
		for _, c := range t.Consumers() {
			if c.ID >= startID {
				for i := from; i < int(s.At(c).Cycle); i++ {
					profile[i]++
				}
			}
		}
		for i := from; i <= s.Cycles; i++ {
			profile[i] += t.FreeOutputs()
		}
	}
	return slices.Max(profile)
}

// persistBatchValue renders everything a persistent batch promises: its
// place on the timeline, its droplet and storage accounting, and the full
// window schedule.
func persistBatchValue(b *Batch) string {
	return persistValue(b, b.Result.Passes[0].Plan.Schedule())
}

// persistValue is persistBatchValue with the batch's window schedule s
// given apart from it.
func persistValue(b *Batch, s *sched.Schedule) string {
	r, p := b.Result, b.Result.Passes[0]
	return fmt.Sprintf("start=%d n=%d D'=%d emitted=%d Tc=%d q=%d waste=%d inputs=%d %s mc=%d first=%d tasks=%d slots=%v",
		b.StartCycle, r.Demand, r.PerPassDemand, r.Emitted, r.TotalCycles, p.Storage, r.TotalWaste, r.TotalInputs,
		s.Algorithm, s.Mixers, s.FirstTask, len(s.Forest.Tasks), s.Slots)
}

// persistReference replays requests the way the persistent pool planned
// before it scheduled its builder's packed forest: after each request's
// trees are added, the whole grown forest is materialized and packed again,
// a fresh kernel schedules the new window, and persistentStorage walks the
// whole forest for its storage. It returns each batch's rendering,
// stopping after the first batch over the storage budget with
// ErrPersistStorage.
func persistReference(t *testing.T, e *Engine, requests []int) ([]string, error) {
	t.Helper()
	b := forest.NewPackedBuilder(e.base)
	elapsed := 0
	var out []string
	for _, n := range requests {
		f := b.Forest().Materialize()
		start, before := len(f.Tasks), f.Stats()
		for i := 0; i < (n+1)/2; i++ {
			b.AddTree()
		}
		f = b.Forest().Materialize()
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
		q := persistentStorage(f, s, start)
		if e.cfg.Storage > 0 && q > e.cfg.Storage {
			return out, ErrPersistStorage
		}
		after := f.Stats()
		d := 2 * ((n + 1) / 2)
		out = append(out, persistValue(&Batch{Request: n, StartCycle: elapsed + 1, Result: &stream.Result{
			Demand: n, PerPassDemand: d, Emitted: d, TotalCycles: s.Cycles,
			TotalWaste: after.Waste - before.Waste, TotalInputs: after.InputTotal - before.InputTotal,
			Passes: []stream.Pass{{Storage: q}},
		}}, s))
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

// itemRepro is the Request sequence that showed a failed Request left in
// the pool: at Storage 8 under MMS, Request(33) needs 19 storage units.
var itemRepro = []int{3, 4, 1, 7, 2, 10, 5, 6, 9, 8, 2, 1, 16, 33, 2}

// forestDigest hashes everything a forest's readers see: every task's tree,
// base node, level, targets, inputs and consumers, and every tree's root
// and span.
func forestDigest(f *forest.Forest) string {
	if f == nil {
		return "nil"
	}
	h := fnv.New64a()
	for _, t := range f.Tasks {
		fmt.Fprintf(h, "%d/%d/%d/%d/%d:", t.ID, t.Tree, t.Base.ID, t.Level, t.Targets)
		for _, src := range t.In {
			if src.Kind == forest.Input {
				fmt.Fprintf(h, "i%d,", src.Fluid)
			} else {
				fmt.Fprintf(h, "t%d/%v,", src.Task.ID, src.Reused)
			}
		}
		for _, c := range t.Consumers() {
			fmt.Fprintf(h, "c%d,", c.ID)
		}
	}
	for _, tree := range f.Trees {
		fmt.Fprintf(h, "T%d/%d/%d;", tree.Index, tree.Root.ID, len(tree.Tasks))
	}
	return fmt.Sprintf("%d trees %016x", len(f.Trees), h.Sum64())
}

// engineState renders a persistent engine's whole observable state: its
// forest (the last batch's), pool, timeline and every batch.
func engineState(e *Engine) string {
	var b strings.Builder
	batches := e.Batches()
	var f *forest.Forest
	if len(batches) > 0 {
		f = batches[len(batches)-1].Result.Passes[0].Plan.Forest()
	}
	fmt.Fprintf(&b, "forest=%s pool=%d elapsed=%d emitted=%d", forestDigest(f), e.PoolSize(), e.Elapsed(), e.Emitted())
	for _, batch := range batches {
		b.WriteString("\n" + persistBatchValue(batch))
	}
	return b.String()
}

// TestPersistentFailedRequestLeavesNoTrace feeds itemRepro to a persistent
// engine at Storage 8. Request(33) fails with ErrPersistStorage, after
// which the engine must equal one that never received it, down to the
// batch the next Request(2) plans.
func TestPersistentFailedRequestLeavesNoTrace(t *testing.T) {
	cfg := Config{Target: pcr, PersistPool: true, Storage: 8}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	failed := false
	for _, n := range itemRepro {
		b, err := e.Request(n)
		if n == 33 {
			if !errors.Is(err, ErrPersistStorage) {
				t.Fatalf("Request(33): err = %v, want ErrPersistStorage", err)
			}
			failed = true
		} else {
			if err != nil {
				t.Fatalf("Request(%d): %v", n, err)
			}
			want, err := ref.Request(n)
			if err != nil {
				t.Fatalf("reference Request(%d): %v", n, err)
			}
			if got, want := persistBatchValue(b), persistBatchValue(want); got != want {
				t.Fatalf("Request(%d) after the failed one:\n got %s\nwant %s", n, got, want)
			}
		}
		if got, want := engineState(e), engineState(ref); got != want {
			t.Fatalf("after Request(%d):\n got %s\nwant %s", n, got, want)
		}
	}
	if !failed {
		t.Fatal("Request(33) was never made")
	}
}

// TestPersistentTasksWriteOnce: a persistent engine writes each task once.
// After every Request it snapshots the tasks of the engine's growing
// forest and of every batch's slab, and no later Request may change one
// of them: a batch's consumers, targets and reuse tags are derived from
// its own slab, so nothing needs writing back into an earlier task.
func TestPersistentTasksWriteOnce(t *testing.T) {
	e, err := New(Config{Target: pcr, PersistPool: true})
	if err != nil {
		t.Fatal(err)
	}
	var pool []forest.PTask    // the builder's tasks after the last Request
	var slabs [][]forest.PTask // each batch's slab as it committed
	var batches []*Batch
	for step, n := range []int{3, 4, 1, 7, 2, 16, 5, 2} {
		b, err := e.Request(n)
		if err != nil {
			t.Fatal(err)
		}
		now := e.persist.pool.Forest().Tasks
		if !slices.Equal(now[:len(pool)], pool) {
			t.Fatalf("Request %d (n=%d) rewrote an earlier task of the engine's forest", step, n)
		}
		for i, was := range slabs {
			if !slices.Equal(batches[i].Result.Passes[0].Plan.Packed().Tasks, was) {
				t.Fatalf("Request %d (n=%d) rewrote batch %d's slab", step, n, i)
			}
		}
		pool = slices.Clone(now)
		batches = append(batches, b)
		slabs = append(slabs, slices.Clone(b.Result.Passes[0].Plan.Packed().Tasks))
	}
}

// TestPersistentHeapLinearInHistory checks that a persistent engine's live
// heap grows linearly with its history: 2000 two-droplet PCR Requests hold
// at most 2.2 times the heap of 1000.
func TestPersistentHeapLinearInHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("grows a 2000-Request history")
	}
	live := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	base := live()
	e, err := New(Config{Target: pcr, PersistPool: true})
	if err != nil {
		t.Fatal(err)
	}
	grow := func(requests int) uint64 {
		for i := 0; i < requests; i++ {
			if _, err := e.Request(2); err != nil {
				t.Fatal(err)
			}
		}
		return live() - base
	}
	at1000 := grow(1000)
	at2000 := grow(1000)
	runtime.KeepAlive(e)
	t.Logf("live heap: %d B after 1000 Requests, %d B after 2000", at1000, at2000)
	if float64(at2000) > 2.2*float64(at1000) {
		t.Fatalf("live heap %d B after 2000 Requests is %.2f times the %d B after 1000, want at most 2.2",
			at2000, float64(at2000)/float64(at1000), at1000)
	}
}

// TestPersistentRequestAllocs pins a persistent Request's allocations: a
// two-droplet PCR Request allocates at most 20 objects, and as many at a
// history of 2000 Requests as at 1000. An engine reaches its history by
// one Request of twice as many droplets, as BenchmarkPersistentRequest's
// do.
func TestPersistentRequestAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts vary under the race detector")
	}
	allocs := map[int]float64{}
	for _, history := range []int{1000, 2000} {
		e, err := New(Config{Target: pcr, PersistPool: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Request(2 * history); err != nil {
			t.Fatal(err)
		}
		allocs[history] = testing.AllocsPerRun(100, func() {
			if _, err := e.Request(2); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("allocations per Request: %.0f at a history of 1000, %.0f at 2000", allocs[1000], allocs[2000])
	if allocs[1000] != allocs[2000] {
		t.Fatalf("a Request allocates %.0f objects at a history of 1000 but %.0f at 2000", allocs[1000], allocs[2000])
	}
	if allocs[1000] > 20 {
		t.Fatalf("a Request allocates %.0f objects, want at most 20", allocs[1000])
	}
}

// FuzzPersistent feeds a persistent engine random Request sequences (n in
// 1..40) under a storage budget q' in 0..15 (0: unlimited), with MMS or
// SRS over an MM or RMA tree. After every step the engine must equal a
// reference engine fed only the Requests that succeeded, and every earlier
// batch must still validate with the storage it had when it was planned
// and pass the plan audit, audit.CheckPacked.
func FuzzPersistent(f *testing.F) {
	repro := make([]byte, len(itemRepro))
	for i, n := range itemRepro {
		repro[i] = byte(n - 1)
	}
	for _, srs := range []bool{false, true} {
		for _, rma := range []bool{false, true} {
			f.Add(repro, uint8(8), srs, rma)
		}
	}
	f.Add([]byte{19, 0, 39, 1, 39}, uint8(3), false, false)
	f.Fuzz(func(t *testing.T, requests []byte, storage uint8, srs, rma bool) {
		if len(requests) > 24 {
			requests = requests[:24]
		}
		cfg := Config{Target: pcr, PersistPool: true, Storage: int(storage % 16)}
		if srs {
			cfg.Scheduler = stream.SRS
		}
		if rma {
			cfg.Algorithm = RMA
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		type planned struct {
			p       *plancache.Plan
			s       *sched.Schedule
			storage int
		}
		var earlier []planned
		for i, r := range requests {
			n := 1 + int(r)%40
			b, err := e.Request(n)
			if err != nil {
				if !errors.Is(err, ErrPersistStorage) {
					t.Fatalf("step %d Request(%d): %v", i, n, err)
				}
			} else {
				want, err := ref.Request(n)
				if err != nil {
					t.Fatalf("step %d: engine planned Request(%d), the reference failed: %v", i, n, err)
				}
				if got, want := persistBatchValue(b), persistBatchValue(want); got != want {
					t.Fatalf("step %d Request(%d):\n got %s\nwant %s", i, n, got, want)
				}
				p := b.Result.Passes[0].Plan
				s := p.Schedule()
				earlier = append(earlier, planned{p, s, sched.StorageUnits(s)})
			}
			if got, want := engineState(e), engineState(ref); got != want {
				t.Fatalf("step %d Request(%d):\n got %s\nwant %s", i, n, got, want)
			}
			for j, p := range earlier {
				if err := p.s.Validate(); err != nil {
					t.Fatalf("step %d: batch %d no longer validates: %v", i, j, err)
				}
				if q := sched.StorageUnits(p.s); q != p.storage {
					t.Fatalf("step %d: batch %d storage %d, was %d", i, j, q, p.storage)
				}
				if rep := audit.CheckPacked(p.p); !rep.Clean() {
					t.Fatalf("step %d: batch %d fails the plan audit: %v", i, j, rep.Err())
				}
			}
		}
	})
}

// BenchmarkPersistentRequest times two-droplet Requests on a persistent
// PCR engine whose pool holds a history of 1000 or 2000 Requests. An
// engine is grown to that history untimed, by one Request of twice as many
// droplets: the pool adds trees one at a time either way, so the forest,
// the pool and the next Request's work equal those after that many
// two-droplet Requests. It then serves `history` timed Requests before a
// fresh engine takes over, so the untimed growth costs less than the timed
// work and the default -benchtime finishes in seconds. Each engine's
// history runs from H to 2H, the same relative range at both sizes, so the
// amortized growth of its arenas weighs alike in both B/op figures. A
// Request's cost must not grow with the history before it.
func BenchmarkPersistentRequest(b *testing.B) {
	for _, history := range []int{1000, 2000} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			b.ReportAllocs()
			var e *Engine
			for i := 0; i < b.N; i++ {
				if i%history == 0 {
					b.StopTimer()
					var err error
					if e, err = New(Config{Target: pcr, PersistPool: true}); err != nil {
						b.Fatal(err)
					}
					if _, err := e.Request(2 * history); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if _, err := e.Request(2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
