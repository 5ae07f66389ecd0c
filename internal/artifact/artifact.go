// Package artifact makes plans first-class serializable artifacts: a
// canonical, versioned binary IR for one cached plan — the base mixing
// graph, the mixing forest grown over it, the schedule's mixer/time bindings
// and the plan's claimed aggregates — content-addressed by the plan-cache
// key and integrity-hashed, so any dmfbd node can execute a plan built
// elsewhere.
//
// Both sides speak the plan's packed slab: Encode writes the packed tasks
// and slot table a plan cache holds, and Decode reads the task records
// straight back into one, so neither builds a pointer-linked forest.
//
// The trust posture mirrors the WAL's: artifacts are never trusted silently.
// Decode rebuilds the base graph under mixgraph.Build's full validation and
// checks of the forest only what filling the slab's arrays needs (a corrupt
// byte stream is a typed ErrCorrupt/ErrIntegrity, never a panic or an
// out-of-range index). Verify then checks the key against the plan and runs
// audit.CheckPacked, the audit every plan the planner builds passes — closed
// forms, the lemma's premise (each task fed by its base node's children),
// task levels, schedule physicality, storage occupancy and the claimed
// aggregates against a recount — before the plan is ever cached or
// executed: a stale or tampered artifact surfaces as ErrVerify, never as a
// mis-mix.
//
// Addresses are derived from the plan-cache key alone (AddressFor), so every
// node computes the same address for the same plan without seeing its bytes;
// the integrity hash in the trailer binds the address's content. The wire
// layout is versioned by the leading magic; a future layout bumps the magic
// and orphans — never misreads — old stores.
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"

	"repro/internal/audit"
	"repro/internal/forest"
	"repro/internal/mixgraph"
	"repro/internal/plancache"
	"repro/internal/ratio"
	"repro/internal/sched"
)

// magic identifies the artifact layout; bumping the version changes it.
const magic = "DMFBART1"

// Decode-side sanity bounds. They exist so a hostile or fuzzed byte stream
// cannot make the decoder allocate unbounded memory before validation fails;
// every real plan sits far inside them.
const (
	maxParts  = 1 << 12 // input fluids per ratio
	maxNodes  = 1 << 20 // base-graph nodes
	maxTasks  = 1 << 20 // forest tasks
	maxString = 1 << 10 // label/name bytes
)

// Typed artifact errors.
var (
	// ErrCorrupt reports a byte stream that is not a structurally valid
	// artifact (truncated, out-of-range references, malformed sections).
	ErrCorrupt = errors.New("artifact: corrupt artifact")
	// ErrVersion reports an artifact written under a different layout
	// version (unknown magic).
	ErrVersion = errors.New("artifact: unsupported artifact version")
	// ErrIntegrity reports a payload whose integrity hash does not match its
	// trailer — bytes damaged after encoding.
	ErrIntegrity = errors.New("artifact: integrity hash mismatch")
	// ErrVerify reports a decoded artifact that failed verification: the
	// plan-level audit found a violation, a claimed aggregate disagrees with
	// recomputation, or the embedded key does not describe the embedded
	// plan. It wraps the specific failure.
	ErrVerify = errors.New("artifact: verification failed")
)

// AddressFor derives the content address of the plan identified by k. The
// address is a pure function of the plan-cache key — algorithm, ratio, base
// graph fingerprint, demand, mixers, scheduler, recovery policy — so every
// node addresses the same plan identically without holding its bytes.
func AddressFor(k plancache.Key) string {
	sum := sha256.Sum256([]byte(k.Canonical()))
	return hex.EncodeToString(sum[:])
}

// Artifact is one decoded plan artifact.
type Artifact struct {
	// Key is the plan-cache identity the artifact was encoded under.
	Key plancache.Key
	// Plan is the decoded plan: its slab, with the stats and storage the
	// artifact claims for it.
	Plan *plancache.Plan
}

// Address returns the artifact's content address (AddressFor of its key).
func (a *Artifact) Address() string { return AddressFor(a.Key) }

// Encode serializes the plan under its cache key into the canonical binary
// IR. Encoding is deterministic: the same (key, plan) always yields the same
// bytes, so the integrity hash is reproducible across nodes. It reads the
// plan's slab only, and fails if the plan is a persistent batch's window
// (a range of a forest other batches share, never cached) or the key does
// not describe the plan (wrong graph fingerprint or demand) —
// an artifact must never be born inconsistent.
func Encode(k plancache.Key, p *plancache.Plan) ([]byte, error) {
	if p == nil {
		return nil, fmt.Errorf("%w: nil plan", ErrVerify)
	}
	if _, _, window := p.Window(); window {
		return nil, fmt.Errorf("%w: plan is a persistent batch's window", ErrVerify)
	}
	f, slots := p.Packed(), p.Slots()
	g := f.Base
	if k.Graph != g.Fingerprint() || k.Ratio != g.Target.String() || k.Names != g.Target.NamesKey() || k.Algo != g.Algorithm {
		return nil, fmt.Errorf("%w: key does not identify the plan's base graph", ErrVerify)
	}
	if k.Demand != f.Demand {
		return nil, fmt.Errorf("%w: key demand %d, forest demand %d", ErrVerify, k.Demand, f.Demand)
	}
	buf := make([]byte, 0, 64+16*len(f.Tasks))
	buf = append(buf, magic...)

	// Section 1: the plan-cache key.
	buf = putString(buf, k.Algo)
	buf = putString(buf, k.Ratio)
	buf = binary.BigEndian.AppendUint64(buf, k.Graph)
	buf = putUvarint(buf, uint64(k.Demand))
	buf = putUvarint(buf, uint64(k.Mixers))
	buf = putString(buf, k.Scheduler)
	buf = putString(buf, k.Policy)

	// Section 2: the target ratio.
	target := g.Target
	buf = putUvarint(buf, uint64(target.N()))
	for i := 0; i < target.N(); i++ {
		buf = putUvarint(buf, uint64(target.Part(i)))
	}
	buf = append(buf, 1) // names follow; an unnamed target writes its defaults
	for _, n := range target.Names() {
		buf = putString(buf, n)
	}

	// Section 3: the base mixing graph.
	buf = putString(buf, g.Algorithm)
	buf = putUvarint(buf, uint64(len(g.Nodes)))
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Kind == mixgraph.Leaf {
			buf = append(buf, 0)
			buf = putUvarint(buf, uint64(n.Fluid))
		} else {
			buf = append(buf, 1)
			buf = putUvarint(buf, uint64(n.Children[0]))
			buf = putUvarint(buf, uint64(n.Children[1]))
		}
	}
	buf = putUvarint(buf, uint64(g.Root.ID))

	// Section 4: the mixing forest, one record per task: tree, base node,
	// level, targets (2 for a tree's root, its last task, else 0), and two
	// sources, each a kind byte (0 a fluid, 1 a task's output, 2 a task's
	// output reused across trees: made before the tree's first task) and
	// its index. Targets and reuse kinds are derived from the spans; the
	// wire keeps them, and Decode checks them against the spans.
	buf = putUvarint(buf, uint64(len(f.Tasks)))
	tree := 0 // the trees starting at or before task i
	for i := range f.Tasks {
		t := &f.Tasks[i]
		for tree < f.NumTrees() && int(f.TreeStart[tree]) <= i {
			tree++
		}
		lo, targets := int32(0), 0
		if tree > 0 {
			lo = f.TreeStart[tree-1]
		}
		if i+1 == len(f.Tasks) || tree < f.NumTrees() && int(f.TreeStart[tree]) == i+1 {
			targets = 2
		}
		buf = putUvarint(buf, uint64(tree))
		buf = putUvarint(buf, uint64(t.Base))
		buf = putUvarint(buf, uint64(t.Level))
		buf = putUvarint(buf, uint64(targets))
		for _, in := range t.In {
			buf = append(buf, sourceKind(in, lo))
			buf = putUvarint(buf, uint64(in.Ref()))
		}
	}

	// Section 5: the schedule — the per-task (cycle, mixer) bindings the
	// executor routes droplets by. The first scheduled task is always 0:
	// a plan schedules its whole forest.
	buf = putString(buf, p.Algorithm())
	buf = putUvarint(buf, uint64(p.Mixers))
	buf = putUvarint(buf, uint64(p.Cycles))
	buf = putUvarint(buf, 0)
	buf = putUvarint(buf, uint64(len(slots)))
	for _, a := range slots {
		buf = putUvarint(buf, uint64(a.Cycle))
		buf = putUvarint(buf, uint64(a.Mixer))
	}

	// Section 6: claimed aggregates, re-derived and compared on Verify.
	buf = putUvarint(buf, uint64(p.Storage))
	buf = putUvarint(buf, uint64(p.Stats.Trees))
	buf = putUvarint(buf, uint64(p.Stats.Mixes))
	buf = putUvarint(buf, uint64(p.Stats.Waste))
	buf = putUvarint(buf, uint64(p.Stats.InputTotal))
	buf = putUvarint(buf, uint64(p.Stats.Targets))
	buf = putUvarint(buf, uint64(p.Stats.Reuses))
	buf = putUvarint(buf, uint64(len(p.Stats.Inputs)))
	for _, v := range p.Stats.Inputs {
		buf = putUvarint(buf, uint64(v))
	}

	// Trailer: integrity hash over everything above.
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...), nil
}

// Decode reassembles an artifact from its binary IR: the integrity trailer,
// the base graph (exact CF arithmetic, topology, target identity —
// mixgraph.Build runs its full validation), then the forest and schedule
// read straight into a plan slab. Of those it checks only what filling the
// slab needs: a positive demand, base nodes and fluids in range, sources
// naming earlier tasks, at most two consumers per task, levels that fit a
// task record (at most 127), tree numbers that start at 1, only continue
// or step by one and stop at ⌈D/2⌉, and one slot per task of a schedule
// starting at task 0; a breach is ErrCorrupt. The slab stores no targets
// or reuse kinds, so Decode checks the wire's against the tree spans and
// refuses a disagreeing claim with ErrVerify. Semantic verification — the
// plan audit and the claimed aggregates — is Verify's job; callers that
// execute decoded plans use DecodeVerified.
func Decode(data []byte) (*Artifact, error) {
	if len(data) < len(magic)+sha256.Size {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: magic %q", ErrVersion, data[:len(magic)])
	}
	payload, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(trailer) {
		return nil, ErrIntegrity
	}
	r := &reader{buf: payload[len(magic):]}

	// Section 1: the key.
	var k plancache.Key
	k.Algo = r.str()
	k.Ratio = r.str()
	k.Graph = r.u64()
	k.Demand = r.count(maxTasks)
	k.Mixers = r.count(maxTasks)
	k.Scheduler = r.str()
	k.Policy = r.str()
	if r.err == nil && k.Demand == 0 {
		r.set(errors.New("demand 0"))
	}

	// Section 2: the target ratio.
	nParts := r.count(maxParts)
	if r.err != nil {
		return nil, r.fail()
	}
	parts := make([]int64, nParts)
	for i := range parts {
		parts[i] = int64(r.uvarint())
	}
	hasNames := r.byte()
	var names []string
	if hasNames == 1 {
		names = make([]string, nParts)
		for i := range names {
			names[i] = r.str()
		}
	} else if hasNames != 0 {
		r.set(fmt.Errorf("names flag %d", hasNames))
	}
	if r.err != nil {
		return nil, r.fail()
	}
	target, err := ratio.New(parts...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if names != nil {
		if target, err = target.WithNames(names...); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	k.Names = target.NamesKey() // the key section leaves the names to the target

	// Section 3: the base graph, rebuilt node by node with consumption
	// budgets tracked so the builder's invariants can never panic.
	algorithm := r.str()
	nNodes := r.count(maxNodes)
	if r.err != nil {
		return nil, r.fail()
	}
	gb := mixgraph.NewBuilder(target)
	level := make([]int, nNodes)   // structural level per node, 0 for leaves
	claimed := make([]int, nNodes) // outputs already consumed per node
	for i := 0; i < nNodes; i++ {
		switch kind := r.byte(); kind {
		case 0:
			fluid := r.count(maxParts)
			if r.err != nil {
				return nil, r.fail()
			}
			if fluid >= target.N() {
				return nil, fmt.Errorf("%w: node %d fluid %d out of range", ErrCorrupt, i, fluid)
			}
			gb.Leaf(fluid)
		case 1:
			l, lerr := r.nodeRef(level, claimed, i)
			rn, rerr := r.nodeRef(level, claimed, i)
			if r.err != nil {
				return nil, r.fail()
			}
			if lerr != nil {
				return nil, lerr
			}
			if rerr != nil {
				return nil, rerr
			}
			if level[i] = max(level[l], level[rn]) + 1; level[i] > math.MaxInt8 {
				return nil, fmt.Errorf("%w: node %d at level %d", ErrCorrupt, i, level[i])
			}
			gb.Mix(l, rn)
		default:
			if r.err != nil {
				return nil, r.fail()
			}
			return nil, fmt.Errorf("%w: node %d kind %d", ErrCorrupt, i, kind)
		}
	}
	rootID := r.count(maxNodes)
	if r.err != nil {
		return nil, r.fail()
	}
	if rootID >= nNodes {
		return nil, fmt.Errorf("%w: root %d of %d nodes", ErrCorrupt, rootID, nNodes)
	}
	if claimed[rootID] != 0 {
		return nil, fmt.Errorf("%w: root %d has consumed outputs", ErrCorrupt, rootID)
	}
	g, err := gb.Build(int32(rootID), algorithm)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	// Section 4: the forest, read into the slab's task arena. The sources
	// naming each task are counted as they arrive, so none is consumed
	// more than twice. A task's targets and its sources' reuse kinds are
	// derived from the spans, and the wire's must agree with them.
	nTasks := r.count(maxTasks)
	if r.err != nil {
		return nil, r.fail()
	}
	tasks := make([]forest.PTask, nTasks)
	named := make([]uint8, nTasks)
	// Trees are contiguous runs of tasks numbered 1, 2, ...: each starts
	// where the number steps and ends at its root, its last task. A plan
	// has ⌈D/2⌉ of them (the audit checks that), so no more are read.
	maxTrees := min((k.Demand+1)/2, nTasks)
	starts := make([]int32, maxTrees)
	nTrees, targets := 0, 0 // targets: the previous task's wire targets
	for i := range tasks {
		t := &tasks[i]
		tree := r.count(maxTasks)
		t.Base = int32(r.count(maxNodes))
		level := r.count(maxNodes)
		t.Level = int8(level)
		wasTargets := targets
		targets = r.count(4)
		var kinds [2]byte
		for j := range t.In {
			kind, ref := r.byte(), int32(r.count(maxTasks))
			kinds[j] = kind
			switch {
			case r.err != nil:
			case kind == 0 && int(ref) < target.N():
				t.In[j] = forest.InputSource(ref)
			case kind == 0:
				r.set(fmt.Errorf("task %d input fluid %d out of range", i, ref))
			case kind > 2:
				r.set(fmt.Errorf("task %d source kind %d", i, kind))
			case int(ref) >= i:
				r.set(fmt.Errorf("task %d consumes task %d (not topological)", i, ref))
			case named[ref] == 2:
				r.set(fmt.Errorf("task %d over-consumes task %d", i, ref))
			default:
				named[ref]++
				t.In[j] = forest.TaskSource(ref)
			}
		}
		switch {
		case r.err != nil:
		case int(t.Base) >= len(g.Nodes):
			r.set(fmt.Errorf("task %d references base node %d of %d", i, t.Base, len(g.Nodes)))
		case level > math.MaxInt8:
			r.set(fmt.Errorf("task %d at level %d", i, level))
		case tree != nTrees && tree != nTrees+1 || tree == 0:
			r.set(fmt.Errorf("task %d in tree %d after tree %d", i, tree, nTrees))
		case tree > maxTrees:
			r.set(fmt.Errorf("task %d in tree %d of a plan for D=%d", i, tree, k.Demand))
		}
		if r.err != nil {
			return nil, r.fail()
		}
		if tree > nTrees {
			// Task i-1 ended the previous tree: it is a root.
			if i > 0 && wasTargets != 2 {
				return nil, fmt.Errorf("%w: task %d ends tree %d but emits %d targets, want 2", ErrVerify, i-1, nTrees, wasTargets)
			}
			starts[nTrees] = int32(i)
			nTrees = tree
		} else if wasTargets != 0 {
			return nil, fmt.Errorf("%w: task %d emits %d targets inside tree %d, want 0", ErrVerify, i-1, wasTargets, nTrees)
		}
		for j, src := range t.In {
			if want := sourceKind(src, starts[nTrees-1]); kinds[j] != want {
				return nil, fmt.Errorf("%w: task %d source %d has kind %d, its tree span gives %d", ErrVerify, i, j, kinds[j], want)
			}
		}
	}
	if nTasks > 0 && targets != 2 {
		return nil, fmt.Errorf("%w: task %d ends tree %d but emits %d targets, want 2", ErrVerify, nTasks-1, nTrees, targets)
	}
	starts = starts[:nTrees:nTrees]

	// Section 5: the schedule bindings.
	scheduler := r.str()
	mixers := r.count(maxTasks)
	cycles := r.count(4*nTasks + 4)
	first := r.count(maxTasks)
	nSlots := r.count(maxTasks)
	if r.err != nil {
		return nil, r.fail()
	}
	// A plan schedules its whole forest; a window of it (a persistent
	// batch's form) would verify as a plan of no cycles and no storage.
	if first != 0 {
		return nil, fmt.Errorf("%w: schedule starts at task %d, want 0", ErrCorrupt, first)
	}
	if nSlots != nTasks {
		return nil, fmt.Errorf("%w: %d slots for %d tasks", ErrCorrupt, nSlots, nTasks)
	}
	slots := make([]sched.Assignment, nSlots)
	for i := range slots {
		slots[i].Cycle = int32(r.count(4*nTasks + 4))
		slots[i].Mixer = int32(r.count(maxTasks))
	}

	// Section 6: claimed aggregates.
	var st forest.Stats
	storage := r.count(maxTasks)
	st.Trees = r.count(maxTasks)
	st.Mixes = r.count(maxTasks)
	st.Waste = int64(r.count(maxTasks))
	st.InputTotal = int64(r.count(maxTasks))
	st.Targets = r.count(maxTasks)
	st.Reuses = r.count(maxTasks)
	nInputs := r.count(maxParts)
	if r.err != nil {
		return nil, r.fail()
	}
	st.Inputs = make([]int64, nInputs)
	for i := range st.Inputs {
		st.Inputs[i] = int64(r.count(maxTasks))
	}
	if r.err != nil {
		return nil, r.fail()
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf))
	}
	pf := forest.PackedForest{Base: g, Demand: k.Demand, Tasks: tasks, TreeStart: starts}
	return &Artifact{Key: k, Plan: plancache.FromSlab(pf, slots, scheduler, mixers, cycles, st, storage)}, nil
}

// Verify proves the decoded artifact safe to cache and execute: the embedded
// key must describe the embedded plan (graph fingerprint, target, algorithm,
// demand, mixers, scheduler), and the plan audit every built plan passes
// (audit.CheckPacked — closed forms, the lemma's premise, task levels,
// schedule physicality, storage occupancy, and the claimed aggregates
// against a recount) must come back clean. Any failure wraps ErrVerify: a
// decoded plan is never executed on trust.
func (a *Artifact) Verify() error {
	p := a.Plan
	f := p.Packed()
	g := f.Base
	switch {
	case a.Key.Graph != g.Fingerprint():
		return fmt.Errorf("%w: key graph %016x, decoded graph %016x", ErrVerify, a.Key.Graph, g.Fingerprint())
	case a.Key.Ratio != g.Target.String():
		return fmt.Errorf("%w: key ratio %q, decoded target %q", ErrVerify, a.Key.Ratio, g.Target.String())
	case a.Key.Algo != g.Algorithm:
		return fmt.Errorf("%w: key algorithm %q, decoded graph built by %q", ErrVerify, a.Key.Algo, g.Algorithm)
	case a.Key.Demand != f.Demand:
		return fmt.Errorf("%w: key demand %d, forest demand %d", ErrVerify, a.Key.Demand, f.Demand)
	case a.Key.Mixers != p.Mixers:
		return fmt.Errorf("%w: key mixers %d, schedule mixers %d", ErrVerify, a.Key.Mixers, p.Mixers)
	case a.Key.Scheduler != p.Algorithm():
		return fmt.Errorf("%w: key scheduler %q, schedule algorithm %q", ErrVerify, a.Key.Scheduler, p.Algorithm())
	}
	if rep := audit.CheckPacked(p); !rep.Clean() {
		return fmt.Errorf("%w: %w", ErrVerify, rep.Err())
	}
	return nil
}

// DecodeVerified decodes and verifies in one step — the only entry point the
// serving layer uses for bytes of any provenance (disk tier, peer fetch,
// client PUT).
func DecodeVerified(data []byte) (*Artifact, error) {
	a, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if err := a.Verify(); err != nil {
		return nil, err
	}
	return a, nil
}

// sourceKind is the wire kind of a source of a task in the tree starting
// at task lo: 0 a fluid, 1 a task's output, 2 a task's output made before
// the tree, a cross-tree reuse.
func sourceKind(s forest.PSource, lo int32) byte {
	switch {
	case s.Kind() == forest.Input:
		return 0
	case s.Ref() < lo:
		return 2
	}
	return 1
}

// nodeRef reads node at's reference to an earlier node, charging its
// output budget, and returns its ID.
func (r *reader) nodeRef(level, claimed []int, at int) (int32, error) {
	id := r.count(maxNodes)
	if r.err != nil {
		return -1, nil
	}
	if id >= at {
		return -1, fmt.Errorf("%w: node %d references node %d (not topological)", ErrCorrupt, at, id)
	}
	limit := 2
	if level[id] == 0 {
		limit = 1 // a leaf
	}
	if claimed[id] >= limit {
		return -1, fmt.Errorf("%w: node %d over-consumes node %d", ErrCorrupt, at, id)
	}
	claimed[id]++
	return int32(id), nil
}

// putUvarint / putString are the canonical primitive encoders.
func putUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

func putString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// reader decodes the primitive stream with sticky error tracking: after the
// first failure every read returns zero values and fail() reports the cause.
type reader struct {
	buf []byte
	err error
}

func (r *reader) set(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) fail() error {
	return fmt.Errorf("%w: %v", ErrCorrupt, r.err)
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.set(errors.New("truncated varint"))
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// count reads a uvarint bounded to [0, limit]; anything larger is corrupt.
func (r *reader) count(limit int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(limit) {
		r.set(fmt.Errorf("count %d exceeds bound %d", v, limit))
		return 0
	}
	return int(v)
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.set(errors.New("truncated byte"))
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.set(errors.New("truncated u64"))
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *reader) str() string {
	n := r.count(maxString)
	if r.err != nil {
		return ""
	}
	if len(r.buf) < n {
		r.set(errors.New("truncated string"))
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}
