package sched

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/forest"
	"repro/internal/obs"
)

// The scheduling kernel: the one implementation of MMS, SRS and OMS. Every
// single-target planner runs it on a forest a PackedBuilder grew: OMS and
// Mlb, internal/stream's plans and demand scan, and the persistent pool of
// internal/core, whose windows (MMSFrom, SRSFrom) schedule the engine's
// growing packed forest. The pointer-forest entry points MMS and SRS pack
// their forest first; they serve multi-target and hand-built forests.
//
// Every queue policy orders tasks by a total order over (level,
// internal-input count, ID) with ID as the final tie-break, so the whole
// priority packs into one uint64 whose integer comparison is the policy's
// comparator. Ready queues are then flat []uint64 buffers — a head-indexed
// FIFO for MMS, binary min-heaps for SRS and Hu — that a Kernel retains
// across runs. After the first schedule of a given size, re-scheduling
// allocates nothing (TestKernelZeroAllocSteadyState). Because every
// comparator is a total order, a correct heap pops keys in exactly sorted
// order regardless of its internal layout, which is what makes repeated
// schedules of one forest byte-identical (TestScheduleDeterminism); the
// frozen fixtures of internal/stream (TestPlannerGolden) pin the schedules
// themselves.

// Priority-key packing. Positional levels are bounded by ratio.MaxDepth
// (62), far under the 16-bit field; task IDs occupy the low 32 bits so a
// popped key yields its task index with a single truncation.
const levelFieldMax = 1<<16 - 1

// keyAsc orders by ascending level, then ascending ID (MMS batches, SRS
// leaf queue, Hu's queue).
func keyAsc(level int8, id int32) uint64 {
	return uint64(uint32(level))<<32 | uint64(uint32(id))
}

// keyInt orders by descending level, then descending internal-input count,
// then ascending ID (the SRS internal queue) under a MIN-heap: both
// descending fields are stored complemented.
func keyInt(level int8, ii int, id int32) uint64 {
	return uint64(uint32(levelFieldMax-int32(level)))<<34 | uint64(uint32(2-ii))<<32 | uint64(uint32(id))
}

func keyID(k uint64) int32 { return int32(uint32(k)) }

// heapPush inserts k into the min-heap h, reusing h's backing array.
func heapPush(h []uint64, k uint64) []uint64 {
	h = append(h, k)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

// heapPop removes and returns the minimum key of h.
func heapPop(h []uint64) (uint64, []uint64) {
	k := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r] < h[l] {
			m = r
		}
		if h[i] <= h[m] {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return k, h
}

type policy int

const (
	policyMMS policy = iota // FIFO, batches sorted ascending (level, ID)
	policySRS               // two-queue storage-reduced rule
	policyHu                // single highest-level-first queue (OMS)
)

// Kernel holds every scratch buffer a packed scheduling run needs. The zero
// value is ready to use; buffers grow to the largest forest scheduled and
// are retained, so a warm Kernel schedules without heap allocation. A Kernel
// is not safe for concurrent use; the engine layer pools them.
type Kernel struct {
	mixers    int
	algorithm string
	firstTask int
	cycles    int

	// The links derive found for the window from firstTask: per task its
	// in-window predecessor count and two consumer slots, in creation
	// order (0 marks a free slot, as a consumer follows its producer); the
	// keyAsc keys of the tasks with no in-window predecessor, sorted, that
	// is in (level, ID) order; and the droplets of earlier windows the
	// window reads.
	// prefixes is the forest Prefixes derived them for, nil after any
	// other run.
	preds    []int32
	cons     []int32
	ready    []uint64
	carried  int
	prefixes *forest.PackedForest

	slots    []Assignment // indexed by task - firstTask
	pending  []int32      // outstanding in-window producers per window task
	fifo     []uint64     // MMS ready queue; head chases tail
	fifoHead int
	qint     []uint64 // SRS internal-task min-heap
	qleaf    []uint64 // SRS leaf min-heap; also Hu's queue
	rel      []uint64 // keys released this cycle, pre-sort (MMS)
	held     int      // hand-off droplets produced before this cycle, not yet consumed
	made     int      // hand-off droplets produced this cycle
	peak     int      // the largest occupancy held reached after a cycle's consumption
}

// unbounded is the storage budget of a run that is never cut short.
const unbounded = math.MaxInt

// MMS runs M_Mixers_Schedule (Algorithm 1) over the packed forest.
func (k *Kernel) MMS(f *forest.PackedForest, mc int) error {
	_, err := k.run(f, mc, "MMS", policyMMS, 0, unbounded)
	return err
}

// SRS runs Storage_Reduced_Scheduling (Algorithm 2) over the packed forest.
func (k *Kernel) SRS(f *forest.PackedForest, mc int) error {
	_, err := k.run(f, mc, "SRS", policySRS, 0, unbounded)
	return err
}

// MMSWithin runs MMS under a budget of q storage units. It schedules
// exactly as MMS does but stops at the first cycle whose storage occupancy
// exceeds q, and reports whether the schedule stayed within q to the end,
// that is whether its peak storage (StorageUnits of the materialized
// schedule) is at most q. The demand scan of internal/stream runs one per
// candidate demand.
//
// A cut-short run leaves Cycles and Assignments describing only the cycles
// scheduled before the cut, with the zero Assignment for every task not yet
// reached: never Materialize it. The next run starts from clean scratch, so
// a kernel that was cut short schedules byte-identically afterwards.
func (k *Kernel) MMSWithin(f *forest.PackedForest, mc, q int) (bool, error) {
	return k.run(f, mc, "MMS", policyMMS, 0, q)
}

// SRSWithin is the SRS counterpart of MMSWithin.
func (k *Kernel) SRSWithin(f *forest.PackedForest, mc, q int) (bool, error) {
	return k.run(f, mc, "SRS", policySRS, 0, q)
}

// MMSFrom schedules only the tasks with index >= firstTask, treating
// earlier tasks as completed before cycle 1 — the incremental window of a
// pool-persistent demand-driven engine (droplets pooled by earlier windows
// are available immediately and occupy storage until consumed). The run
// touches the window's tasks and scratch only, however long the forest
// before it.
func (k *Kernel) MMSFrom(f *forest.PackedForest, mc, firstTask int) error {
	_, err := k.run(f, mc, "MMS", policyMMS, firstTask, unbounded)
	return err
}

// SRSFrom is the SRS counterpart of MMSFrom.
func (k *Kernel) SRSFrom(f *forest.PackedForest, mc, firstTask int) error {
	_, err := k.run(f, mc, "SRS", policySRS, firstTask, unbounded)
	return err
}

// Hu runs highest-level-first list scheduling (the OMS rule) over the packed
// forest. OMS(base, mc) is Hu over BuildPacked(b, base, 2).
func (k *Kernel) Hu(f *forest.PackedForest, mc int) error {
	_, err := k.run(f, mc, "OMS", policyHu, 0, unbounded)
	return err
}

// Prefixes readies the kernel to schedule prefixes of f, the forests of
// its first trees, with MMSPrefixWithin and SRSPrefixWithin. It derives
// every task's predecessor count and consumers once; a prefix run copies
// the counts and skips the consumers past its end, so it schedules exactly
// as the prefix forest built alone would. The demand scan of
// internal/stream runs one per candidate demand. f must not change while
// they run; any other run ends the readiness.
func (k *Kernel) Prefixes(f *forest.PackedForest) error {
	if err := k.derive(f, 0); err != nil {
		return err
	}
	k.prefixes = f
	return nil
}

// MMSPrefixWithin is MMSWithin over the first trees trees of the forest
// Prefixes readied.
func (k *Kernel) MMSPrefixWithin(trees, mc, q int) (bool, error) {
	return k.prefixWithin(trees, mc, "MMS", policyMMS, q)
}

// SRSPrefixWithin is the SRS counterpart of MMSPrefixWithin.
func (k *Kernel) SRSPrefixWithin(trees, mc, q int) (bool, error) {
	return k.prefixWithin(trees, mc, "SRS", policySRS, q)
}

func (k *Kernel) prefixWithin(trees, mc int, algo string, p policy, budget int) (bool, error) {
	f := k.prefixes
	switch {
	case f == nil:
		return false, errors.New("sched: a prefix run needs Prefixes first")
	case mc < 1:
		return false, ErrNoMixers
	case trees < 0 || trees > f.NumTrees():
		return false, fmt.Errorf("sched: prefix of %d trees of a forest of %d", trees, f.NumTrees())
	}
	n := len(f.Tasks)
	if trees < f.NumTrees() {
		n = int(f.TreeStart[trees])
	}
	return k.schedule(f, n, mc, algo, p, budget)
}

// Cycles returns Tc of the last run.
func (k *Kernel) Cycles() int { return k.cycles }

// Peak returns the peak storage occupancy of the last run's schedule: what
// StorageUnits of its materialized form returns, counted as it ran. A
// cut-short run reports the peak of the cycles it scheduled.
func (k *Kernel) Peak() int { return k.peak }

// Assignments returns the slot table of the last run: entry i places task
// firstTask+i. The slice aliases kernel scratch: it is valid until the next
// run.
func (k *Kernel) Assignments() []Assignment { return k.slots }

// Materialize copies the last run's result into a Schedule over the given
// pointer forest (the materialized or original form of the packed one, in
// the state the run scheduled). The pointer-forest entry points call it;
// a plan, a persistent batch's included, copies Assignments into its slab
// instead.
func (k *Kernel) Materialize(f *forest.Forest) *Schedule {
	return &Schedule{
		Forest:    f,
		Mixers:    k.mixers,
		Algorithm: k.algorithm,
		Slots:     append([]Assignment(nil), k.slots...),
		Cycles:    k.cycles,
		FirstTask: k.firstTask,
	}
}

func growAssignments(s []Assignment, n int) []Assignment {
	if cap(s) < n {
		return make([]Assignment, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = Assignment{}
	}
	return s
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// flush moves this cycle's released batch (rel holds keyAsc keys) into the
// active policy's ready structure. Releases are batched per cycle: a task
// released while cycle t's batch executes cannot join that same batch,
// which is what keeps a droplet from being consumed in the cycle it was
// produced.
func (k *Kernel) flush(f *forest.PackedForest, p policy) {
	if len(k.rel) == 0 {
		return
	}
	switch p {
	case policyMMS:
		// FIFO overall, each batch in ascending (level, ID) order.
		slices.Sort(k.rel)
		if k.fifoHead == len(k.fifo) {
			// Queue momentarily empty: rewind so the backing array never
			// grows beyond the high-water mark of simultaneously ready tasks.
			k.fifo = k.fifo[:0]
			k.fifoHead = 0
		}
		k.fifo = append(k.fifo, k.rel...)
	case policySRS:
		for _, key := range k.rel {
			id := keyID(key)
			if ii := f.Tasks[id].InternalInputs(); ii > 0 {
				k.qint = heapPush(k.qint, keyInt(f.Tasks[id].Level, ii, id))
			} else {
				k.qleaf = heapPush(k.qleaf, key)
			}
		}
	case policyHu:
		for _, key := range k.rel {
			k.qleaf = heapPush(k.qleaf, key)
		}
	}
	k.rel = k.rel[:0]
}

// run derives the links of f's window from firstTask and schedules it in
// full (schedule). Tasks with index < firstTask are treated as completed
// before cycle 1: their output droplets are available immediately and
// they receive no assignment.
func (k *Kernel) run(f *forest.PackedForest, mc int, algo string, p policy, firstTask, budget int) (bool, error) {
	if mc < 1 {
		return false, ErrNoMixers
	}
	if n := len(f.Tasks); firstTask < 0 || firstTask > n {
		return false, fmt.Errorf("sched: first task %d outside [0, %d]", firstTask, n)
	}
	if err := k.derive(f, firstTask); err != nil {
		return false, err
	}
	return k.schedule(f, len(f.Tasks), mc, algo, p, budget)
}

// derive finds the links of f's window from firstTask in its sources: an
// in-window source is a pending producer, and the consuming task takes the
// producer's first free consumer slot; an earlier window's droplet is
// carried into the window. A packed task stores none of them, and no run
// writes a task.
func (k *Kernel) derive(f *forest.PackedForest, firstTask int) error {
	k.prefixes = nil
	k.firstTask = firstTask
	k.preds = growInt32(k.preds, len(f.Tasks)-firstTask)
	k.cons = growInt32(k.cons, 2*(len(f.Tasks)-firstTask))
	preds, cons, carried := k.preds, k.cons, 0
	k.ready = k.ready[:0]
	for i := firstTask; i < len(f.Tasks); i++ {
		w := i - firstTask
		for _, src := range f.Tasks[i].In {
			p := int(src) - firstTask
			switch {
			case src < 0:
				continue
			case p < 0:
				carried++
				continue
			case p >= w:
				return fmt.Errorf("sched: task %d consumes task %d, not an earlier one", i, src)
			}
			slot := 2 * p
			if cons[slot] != 0 {
				slot++
			}
			if cons[slot] != 0 {
				return fmt.Errorf("sched: task %d has more than two consumers", src)
			}
			cons[slot] = int32(i)
			preds[w]++
		}
		if preds[w] == 0 {
			k.ready = append(k.ready, keyAsc(f.Tasks[i].Level, int32(i)))
		}
	}
	// Sorted once here, the keys seed every run over the window, a prefix
	// run's included, without a sort or a heap push each.
	slices.Sort(k.ready)
	k.carried = carried
	return nil
}

// schedule is the cycle-stepped list-scheduling engine over the derived
// window's tasks before n: release tasks whose producers finished, let the
// policy pick up to mc, assign mixers in increasing index order (as
// Algorithms 1 and 2 do). A consumer at n or later is not scheduled and
// takes no droplet.
//
// Once cycle t is scheduled its storage occupancy is final: the hand-off
// droplets produced before t that no task of cycle t consumes (held, after
// assign has debited cycle t's inputs). Later cycles never change it, and
// the schedule's peak storage (Peak) is the largest such occupancy, so
// schedule stops at the first cycle holding more than budget droplets and
// reports false: the finished schedule would need more than budget
// storage units.
func (k *Kernel) schedule(f *forest.PackedForest, n, mc int, algo string, p policy, budget int) (bool, error) {
	firstTask := k.firstTask
	k.mixers, k.algorithm, k.cycles = mc, algo, 0
	k.slots = growAssignments(k.slots, n-firstTask)
	k.pending = append(k.pending[:0], k.preds[:n-firstTask]...)
	k.fifo, k.fifoHead = k.fifo[:0], 0
	k.qint, k.qleaf = k.qint[:0], k.qleaf[:0]
	k.held, k.made, k.peak = k.carried, 0, 0
	k.rel = k.rel[:0]
	// Seed the queues with the ready tasks before n, already in (level, ID)
	// order: MMS's first batch as it stands, and an ascending run is a
	// valid min-heap. Only a window's tasks reading carried droplets have
	// internal inputs and go to SRS's internal heap.
	for _, key := range k.ready {
		id := keyID(key)
		switch {
		case int(id) >= n:
		case p == policyMMS:
			k.fifo = append(k.fifo, key)
		case p == policySRS && f.Tasks[id].InternalInputs() > 0:
			k.qint = heapPush(k.qint, keyInt(f.Tasks[id].Level, f.Tasks[id].InternalInputs(), id))
		default:
			k.qleaf = append(k.qleaf, key)
		}
	}

	remaining := n - firstTask
	for t := 1; remaining > 0; t++ {
		picked := 0
		switch p {
		case policyMMS:
			for picked < mc && k.fifoHead < len(k.fifo) {
				id := keyID(k.fifo[k.fifoHead])
				k.fifoHead++
				picked++
				k.assign(f, id, t, picked, n)
			}
		case policySRS:
			intNodes := len(k.qint) // |Qint| before dequeuing, as in Algorithm 2
			for picked < mc && len(k.qint) > 0 {
				var key uint64
				key, k.qint = heapPop(k.qint)
				picked++
				k.assign(f, keyID(key), t, picked, n)
			}
			for leafBudget := mc - intNodes; leafBudget > 0 && len(k.qleaf) > 0; leafBudget-- {
				var key uint64
				key, k.qleaf = heapPop(k.qleaf)
				picked++
				k.assign(f, keyID(key), t, picked, n)
			}
		case policyHu:
			for picked < mc && len(k.qleaf) > 0 {
				var key uint64
				key, k.qleaf = heapPop(k.qleaf)
				picked++
				k.assign(f, keyID(key), t, picked, n)
			}
		}
		if picked == 0 {
			return false, ErrDeadlock
		}
		remaining -= picked
		k.cycles = t
		k.peak = max(k.peak, k.held)
		if k.held > budget {
			if obs.Enabled() {
				obs.Inc("sched.schedules_cut")
			}
			return false, nil
		}
		k.held += k.made
		k.made = 0
		k.flush(f, p)
	}
	if obs.Enabled() {
		obs.Inc("sched.schedules")
		obs.Observe("sched.cycles", float64(k.cycles))
		if k.cycles > 0 {
			scheduled := n - firstTask
			obs.Observe("sched.mixer_utilization", float64(scheduled)/(float64(mc)*float64(k.cycles)))
		}
	}
	return true, nil
}

// assign places task id at (cycle, mixer), debits the droplets it consumes
// from held, credits the droplets it hands on to tasks before n to made,
// and stages consumers whose last in-window producer just finished into
// rel; flush enqueues them after the cycle's batch completes.
func (k *Kernel) assign(f *forest.PackedForest, id int32, cycle, mixer, n int) {
	first, pending := k.firstTask, k.pending
	w := int(id) - first
	k.slots[w] = Assignment{Cycle: int32(cycle), Mixer: int32(mixer)}
	k.held -= f.Tasks[id].InternalInputs()
	for _, c := range k.cons[2*w : 2*w+2] {
		if c == 0 || int(c) >= n {
			break // slots fill in creation order
		}
		k.made++
		j := int(c) - first
		if pending[j]--; pending[j] == 0 {
			k.rel = append(k.rel, keyAsc(f.Tasks[c].Level, c))
		}
	}
}
