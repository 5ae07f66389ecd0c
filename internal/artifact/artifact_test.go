package artifact

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"slices"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/plancache"
	"repro/internal/protocols"
	"repro/internal/ratio"
	"repro/internal/sched"
)

// buildPlan constructs a real plan the way the serving layer does: base graph
// from the named algorithm, forest for the demand, schedule on mc mixers.
func buildPlan(t testing.TB, algo core.Algorithm, r ratio.Ratio, demand, mc int, scheduler string) (plancache.Key, *plancache.Plan) {
	t.Helper()
	g, err := algo.Build(r)
	if err != nil {
		t.Fatalf("%v.Build: %v", algo, err)
	}
	f, err := forest.Build(g, demand)
	if err != nil {
		t.Fatalf("forest.Build: %v", err)
	}
	var s *sched.Schedule
	switch scheduler {
	case "MMS":
		s, err = sched.MMS(f, mc)
	case "SRS":
		s, err = sched.SRS(f, mc)
	default:
		t.Fatalf("unknown scheduler %q", scheduler)
	}
	if err != nil {
		t.Fatalf("%s: %v", scheduler, err)
	}
	return plancache.KeyFor(g, demand, mc, scheduler, plancache.PristinePolicy), plancache.NewPlan(f, s)
}

// TestRoundTrip proves encode → decode → verify is the identity across every
// base algorithm × scheduler: the decoded plan audits clean, reproduces the
// original slab and aggregates, and re-encodes to byte-identical artifacts
// (the determinism the cross-node content addresses rely on).
func TestRoundTrip(t *testing.T) {
	ratios := []ratio.Ratio{protocols.PCR16().Ratio}
	for _, p := range protocols.Table2() {
		ratios = append(ratios, p.Ratio)
	}
	for _, algo := range core.AllAlgorithms() {
		for _, scheduler := range []string{"MMS", "SRS"} {
			for ri, r := range ratios {
				k, p := buildPlan(t, algo, r, 7, 4, scheduler)
				data, err := Encode(k, p)
				if err != nil {
					t.Fatalf("%v/%s ratio %d: Encode: %v", algo, scheduler, ri, err)
				}
				a, err := DecodeVerified(data)
				if err != nil {
					t.Fatalf("%v/%s ratio %d: DecodeVerified: %v", algo, scheduler, ri, err)
				}
				if a.Key != k {
					t.Fatalf("key round-trip: got %+v, want %+v", a.Key, k)
				}
				if a.Address() != AddressFor(k) {
					t.Fatal("address disagrees with AddressFor")
				}
				if a.Plan.Storage != p.Storage {
					t.Fatalf("storage: got %d, want %d", a.Plan.Storage, p.Storage)
				}
				if a.Plan.Stats.Mixes != p.Stats.Mixes || a.Plan.Stats.Waste != p.Stats.Waste ||
					a.Plan.Stats.Reuses != p.Stats.Reuses || a.Plan.Stats.Trees != p.Stats.Trees {
					t.Fatalf("stats: got %+v, want %+v", a.Plan.Stats, p.Stats)
				}
				if a.Plan.Cycles != p.Cycles {
					t.Fatalf("cycles: got %d, want %d", a.Plan.Cycles, p.Cycles)
				}
				// The decoder derives links and tree bounds the wire omits.
				got, want := a.Plan.Packed(), p.Packed()
				if !slices.Equal(got.Tasks, want.Tasks) ||
					!slices.Equal(got.TreeStart, want.TreeStart) || !slices.Equal(a.Plan.Slots(), p.Slots()) {
					t.Fatalf("%v/%s ratio %d: decoded slab differs from the encoded one", algo, scheduler, ri)
				}
				// Deterministic re-encode: decoded plans address-match their source.
				again, err := Encode(a.Key, a.Plan)
				if err != nil {
					t.Fatalf("re-encode: %v", err)
				}
				if !bytes.Equal(data, again) {
					t.Fatalf("%v/%s ratio %d: re-encode differs from original", algo, scheduler, ri)
				}
			}
		}
	}
}

// TestAddressIsKeyDerived pins the content-address contract: the address is a
// pure function of the key — identical for identical keys, distinct across
// every key dimension the planner varies.
func TestAddressIsKeyDerived(t *testing.T) {
	k, _ := buildPlan(t, core.MM, protocols.PCR16().Ratio, 5, 3, "MMS")
	if AddressFor(k) != AddressFor(k) {
		t.Fatal("address not deterministic")
	}
	if len(AddressFor(k)) != 64 {
		t.Fatalf("address length %d, want 64 hex chars", len(AddressFor(k)))
	}
	for _, mutate := range []func(plancache.Key) plancache.Key{
		func(k plancache.Key) plancache.Key { k.Demand++; return k },
		func(k plancache.Key) plancache.Key { k.Mixers++; return k },
		func(k plancache.Key) plancache.Key { k.Scheduler = "SRS"; return k },
		func(k plancache.Key) plancache.Key { k.Policy = "degraded"; return k },
		func(k plancache.Key) plancache.Key { k.Graph ^= 1; return k },
	} {
		if AddressFor(mutate(k)) == AddressFor(k) {
			t.Fatal("mutated key collides with original address")
		}
	}
}

// windowBytes rewrites the schedule section of the artifact data to start
// at task first and reseals it: the wire form of a persistent window, a
// schedule of a range of its forest. Encode never writes one, so the
// first-task field is patched in real bytes.
func windowBytes(t testing.TB, data []byte, first int) []byte {
	t.Helper()
	a, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	p := a.Plan
	head := putString(nil, p.Algorithm())
	head = putUvarint(head, uint64(p.Mixers))
	head = putUvarint(head, uint64(p.Cycles))
	head = append(head, 0) // the first scheduled task
	section := putUvarint(head[:len(head):len(head)], uint64(len(p.Slots())))
	payload := data[:len(data)-sha256.Size]
	at := bytes.Index(payload, section)
	if at < 0 || bytes.Count(payload, section) != 1 {
		t.Fatal("schedule section not found once in the artifact")
	}
	out := append([]byte(nil), payload[:at+len(head)-1]...)
	out = putUvarint(out, uint64(first))
	return seal(append(out, payload[at+len(head):]...))
}

// TestDecodeVerifiedRejectsWindowSchedule: a plan artifact whose schedule
// is a window is corrupt. A plan schedules every task of its forest; the
// D=20 PCR MMS plan re-addressed as a window past its last task would
// otherwise describe a plan that schedules none of its tasks, and a plan
// cache holding it would stream 20 droplets in no time.
func TestDecodeVerifiedRejectsWindowSchedule(t *testing.T) {
	k, p := buildPlan(t, core.MM, protocols.PCR16().Ratio, 20, 3, "MMS")
	data, err := Encode(k, p)
	if err != nil {
		t.Fatal(err)
	}
	window := windowBytes(t, data, len(p.Slots()))
	if a, err := DecodeVerified(window); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("window schedule: DecodeVerified err = %v (plan %+v), want ErrCorrupt", err, a)
	}
}

// TestEncodeRefusesWindow: a persistent batch's plan is a window of its
// engine's forest, shared with the engine's other batches and never
// cached, so Encode refuses it, the first batch's window included, even
// under a key that describes its slab.
func TestEncodeRefusesWindow(t *testing.T) {
	e, err := core.New(core.Config{Target: protocols.PCR16().Ratio, PersistPool: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{3, 4} {
		b, err := e.Request(n)
		if err != nil {
			t.Fatal(err)
		}
		p := b.Result.Passes[0].Plan
		k := plancache.KeyFor(e.Base(), p.Packed().Demand, p.Mixers, p.Algorithm(), plancache.PristinePolicy)
		if data, err := Encode(k, p); !errors.Is(err, ErrVerify) {
			t.Fatalf("batch %d: Encode err = %v (%d bytes), want ErrVerify", i, err, len(data))
		}
	}
}

// corruptForest is one structural breach of a plan's forest, written into
// real artifact bytes by Encode (which audits nothing) and so sealed.
type corruptForest struct {
	name string
	data []byte
}

// corruptForests writes one artifact per breach the decoder or the audit
// must catch, each a mutation of a fresh copy of a D=4 MM plan's slab.
func corruptForests(t testing.TB) []corruptForest {
	t.Helper()
	r, err := ratio.New(1, 2, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	k, p := servedPlan(t, core.MM, r, 4, 3, "MMS")
	nodes := p.Packed().Base.Nodes
	leaf := 0
	for leaf < len(nodes) && !nodes[leaf].IsLeaf() {
		leaf++
	}
	from := forest.TaskSource
	cases := []struct {
		name   string
		mutate func(k *plancache.Key, f *forest.PackedForest, slots *[]sched.Assignment)
	}{
		{"empty", func(_ *plancache.Key, f *forest.PackedForest, slots *[]sched.Assignment) {
			f.Tasks, *slots = f.Tasks[:0], (*slots)[:0]
		}},
		{"bad-base", func(_ *plancache.Key, f *forest.PackedForest, _ *[]sched.Assignment) {
			f.Tasks[0].Base = int32(len(nodes))
		}},
		{"leaf-base", func(_ *plancache.Key, f *forest.PackedForest, _ *[]sched.Assignment) {
			f.Tasks[0].Base = int32(leaf)
		}},
		{"forward-ref", func(_ *plancache.Key, f *forest.PackedForest, _ *[]sched.Assignment) {
			f.Tasks[0].In[0] = from(5)
		}},
		{"over-consume", func(_ *plancache.Key, f *forest.PackedForest, _ *[]sched.Assignment) {
			last := len(f.Tasks) - 1
			f.Tasks[last].In = [2]forest.PSource{from(0), from(0)}
			f.Tasks[1].In[0] = from(0)
		}},
		{"fluid-range", func(_ *plancache.Key, f *forest.PackedForest, _ *[]sched.Assignment) {
			f.Tasks[0].In[0] = forest.InputSource(99)
		}},
		{"too-few-trees", func(_ *plancache.Key, f *forest.PackedForest, slots *[]sched.Assignment) {
			f.Tasks, *slots = f.Tasks[:1], (*slots)[:1]
		}},
		{"zero-demand", func(k *plancache.Key, f *forest.PackedForest, _ *[]sched.Assignment) {
			k.Demand, f.Demand = 0, 0
		}},
	}
	out := make([]corruptForest, len(cases))
	for i, c := range cases {
		k2, f, slots := k, *p.Packed(), append([]sched.Assignment(nil), p.Slots()...)
		f.Tasks = append([]forest.PTask(nil), f.Tasks...)
		c.mutate(&k2, &f, &slots)
		data, err := Encode(k2, plancache.FromSlab(f, slots, p.Algorithm(), p.Mixers, p.Cycles, p.Stats, p.Storage))
		if err != nil {
			t.Fatalf("%s: Encode: %v", c.name, err)
		}
		out[i] = corruptForest{c.name, data}
	}
	// Tree numbers, targets and reuse kinds are written from the spans,
	// which cannot skip a tree or disagree with them, and a level from an
	// int8, so those breaches go into the sealed bytes.
	last := len(p.Packed().Tasks) - 1
	reuse := func(recs []taskRecord, kind, to byte) {
		for i := range recs {
			for j, kd := range recs[i].kinds {
				if kd == kind {
					recs[i].kinds[j] = to
					return
				}
			}
		}
		t.Fatalf("no source of wire kind %d", kind)
	}
	return append(out,
		corruptForest{"tree-skip", rewriteRecords(t, k, p, func(recs []taskRecord) { recs[last].tree += 3 })},
		corruptForest{"level-200", rewriteRecords(t, k, p, func(recs []taskRecord) { recs[last].level = 200 })},
		corruptForest{"bad-targets", rewriteRecords(t, k, p, func(recs []taskRecord) { recs[0].targets = 1 })},
		corruptForest{"root-no-targets", rewriteRecords(t, k, p, func(recs []taskRecord) { recs[last].targets = 0 })},
		corruptForest{"reuse-as-same-tree", rewriteRecords(t, k, p, func(recs []taskRecord) { reuse(recs, 2, 1) })},
		corruptForest{"same-tree-as-reuse", rewriteRecords(t, k, p, func(recs []taskRecord) { reuse(recs, 1, 2) })})
}

// taskRecord is one task's record in an artifact's forest section.
type taskRecord struct {
	tree, base, level, targets int
	kinds                      [2]byte
	refs                       [2]int32
}

// rewriteRecords encodes p under k, applies edit to its task records as
// Encode writes them (derived from p's slab here), and reseals the
// payload.
func rewriteRecords(t testing.TB, k plancache.Key, p *plancache.Plan, edit func(recs []taskRecord)) []byte {
	t.Helper()
	data, err := Encode(k, p)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Packed()
	recs := make([]taskRecord, len(f.Tasks))
	for i, task := range f.Tasks {
		tree := f.TreeOf(i)
		lo, hi := f.Span(tree - 1)
		r := taskRecord{tree: tree, base: int(task.Base), level: int(task.Level)}
		if i == int(hi)-1 {
			r.targets = 2
		}
		for j, in := range task.In {
			r.kinds[j], r.refs[j] = sourceKind(in, lo), in.Ref()
		}
		recs[i] = r
	}
	section := func() []byte {
		var b []byte
		for _, r := range recs {
			b = putUvarint(b, uint64(r.tree))
			b = putUvarint(b, uint64(r.base))
			b = putUvarint(b, uint64(r.level))
			b = putUvarint(b, uint64(r.targets))
			for j := range r.kinds {
				b = putUvarint(append(b, r.kinds[j]), uint64(r.refs[j]))
			}
		}
		return append(b, putString(nil, p.Algorithm())...) // the schedule section follows
	}
	was := section()
	payload := data[:len(data)-sha256.Size]
	at := bytes.Index(payload, was)
	if at < 0 || bytes.Count(payload, was) != 1 {
		t.Fatal("task records not found once in the artifact")
	}
	edit(recs)
	out := append(append([]byte(nil), payload[:at]...), section()...)
	return seal(append(out, payload[at+len(was):]...))
}

// TestDecodeChecksDerivedClaims: a task record's targets and its
// sources' reuse kinds are claims the slab does not store; Decode derives
// them from the tree spans and refuses a record that disagrees with
// ErrVerify, as verification refused it when the slab stored them.
func TestDecodeChecksDerivedClaims(t *testing.T) {
	for _, c := range corruptForests(t) {
		switch c.name {
		case "bad-targets", "root-no-targets", "reuse-as-same-tree", "same-tree-as-reuse":
			if _, err := Decode(c.data); !errors.Is(err, ErrVerify) {
				t.Errorf("%s: Decode err = %v, want ErrVerify", c.name, err)
			}
		}
	}
}

// TestDecodeRejectsWideLevel: a task record holds its level in a byte, so a
// wire level above 127 is corrupt, not truncated into another level.
func TestDecodeRejectsWideLevel(t *testing.T) {
	for _, c := range corruptForests(t) {
		if c.name != "level-200" {
			continue
		}
		if _, err := Decode(c.data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("level 200: Decode err = %v, want ErrCorrupt", err)
		}
		return
	}
	t.Fatal("no level-200 case")
}

// TestDecodeRejectsDeepGraph: a base-graph node holds its level in a
// byte, so a graph section whose mix chain climbs past level 127 is
// corrupt, not a panic in the graph builder.
func TestDecodeRejectsDeepGraph(t *testing.T) {
	k, p := servedPlan(t, core.MM, ratio.MustNew(1, 1), 2, 1, "MMS")
	data, err := Encode(k, p)
	if err != nil {
		t.Fatal(err)
	}
	// section writes a graph section as Encode does: the algorithm, the
	// node count, each node (0 and a fluid, or 1 and two child IDs) and
	// the root's ID.
	section := func(nodes [][]uint64) []byte {
		buf := putString(nil, "MM")
		buf = putUvarint(buf, uint64(len(nodes)))
		for _, n := range nodes {
			buf = append(buf, byte(n[0]))
			for _, v := range n[1:] {
				buf = putUvarint(buf, v)
			}
		}
		return putUvarint(buf, uint64(len(nodes)-1))
	}
	g := p.Packed().Base
	var real [][]uint64
	for i := range g.Nodes {
		if n := &g.Nodes[i]; n.IsLeaf() {
			real = append(real, []uint64{0, uint64(n.Fluid)})
		} else {
			real = append(real, []uint64{1, uint64(n.Children[0]), uint64(n.Children[1])})
		}
	}
	// A chain of 128 mixes, each over the one below and a fresh leaf.
	deep := [][]uint64{{0, 0}, {0, 1}, {1, 0, 1}}
	for range 127 {
		top := uint64(len(deep) - 1)
		deep = append(deep, []uint64{0, 1}, []uint64{1, top, top + 1})
	}
	payload := data[:len(data)-sha256.Size]
	old := section(real)
	at := bytes.Index(payload, old)
	if at < 0 || bytes.Count(payload, old) != 1 {
		t.Fatal("graph section not found once in the payload")
	}
	tampered := slices.Concat(payload[:at], section(deep), payload[at+len(old):])
	if _, err := Decode(seal(tampered)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("128-level graph: Decode err = %v, want ErrCorrupt", err)
	}
}

// TestDecodeKeyCarriesNames: the key section leaves the target's fluid
// names out, so the same plan of a named and an unnamed target shares one
// address, and Decode fills the names in from the decoded target: a
// decoded key equals the key the plan was encoded under.
func TestDecodeKeyCarriesNames(t *testing.T) {
	var addrs []string
	for _, r := range []ratio.Ratio{ratio.MustParse("2:1:1:1:1:1:9"), protocols.PCR16().Ratio} {
		k, p := servedPlan(t, core.MM, r, 20, 3, "MMS")
		data, err := Encode(k, p)
		if err != nil {
			t.Fatal(err)
		}
		a, err := DecodeVerified(data)
		if err != nil {
			t.Fatal(err)
		}
		if a.Key != k {
			t.Fatalf("%v: decoded key %+v, encoded under %+v", r.Names(), a.Key, k)
		}
		addrs = append(addrs, a.Address())
	}
	if addrs[0] != addrs[1] {
		t.Fatal("fluid names changed the artifact address")
	}
}

// TestDecodeRejectsCorruptForests: every structural breach of a sealed
// artifact's forest — the checks the decoder keeps and those it leaves to
// the audit — is a typed ErrCorrupt or ErrVerify, never a panic.
func TestDecodeRejectsCorruptForests(t *testing.T) {
	for _, c := range corruptForests(t) {
		a, err := DecodeVerified(c.data)
		t.Logf("%s: %v", c.name, err)
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVerify) {
			t.Errorf("%s: DecodeVerified err = %v (artifact %+v), want ErrCorrupt or ErrVerify", c.name, err, a)
		}
	}
}

// TestVerifyRejectsTamperedLevel: a task's level is what the schedulers'
// priorities read when a degraded chip is replanned, so an artifact whose
// one level byte was changed and resealed must fail verification, not be
// adopted with a wrong level.
func TestVerifyRejectsTamperedLevel(t *testing.T) {
	g, err := core.MM.Build(protocols.PCR16().Ratio)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(shift int) []byte {
		f, err := forest.Build(g, 20)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.MMS(f, 3)
		if err != nil {
			t.Fatal(err)
		}
		f.Tasks[len(f.Tasks)/2].Level += shift
		data, err := Encode(plancache.KeyFor(g, 20, 3, "MMS", plancache.PristinePolicy), plancache.NewPlan(f, s))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	clean, tampered := encode(0), encode(7)
	if len(clean) != len(tampered) {
		t.Fatalf("tampered artifact is %d bytes, clean %d", len(tampered), len(clean))
	}
	diff := 0
	for i := range clean[:len(clean)-sha256.Size] {
		if clean[i] != tampered[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("test premise: %d payload bytes differ, want the one level byte", diff)
	}
	if _, err := DecodeVerified(clean); err != nil {
		t.Fatalf("clean artifact: %v", err)
	}
	if _, err := DecodeVerified(tampered); !errors.Is(err, ErrVerify) {
		t.Fatalf("tampered level: DecodeVerified err = %v, want ErrVerify", err)
	}
}

// TestCorruptArtifactsAreTypedErrors is the regression test the acceptance
// criteria name: damaged artifacts must surface as typed errors — ErrVersion,
// ErrIntegrity, ErrCorrupt or ErrVerify — never as panics or silent success.
func TestCorruptArtifactsAreTypedErrors(t *testing.T) {
	k, p := buildPlan(t, core.RMA, protocols.PCR16().Ratio, 6, 3, "MMS")
	data, err := Encode(k, p)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 4, len(magic), len(data) / 2, len(data) - 1} {
			if _, err := Decode(data[:n]); err == nil {
				t.Fatalf("truncation to %d bytes decoded", n)
			} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrIntegrity) && !errors.Is(err, ErrVersion) {
				t.Fatalf("truncation to %d bytes: untyped error %v", n, err)
			}
		}
	})

	t.Run("wrong-version", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[7] = '9' // DMFBART9
		if _, err := Decode(bad); !errors.Is(err, ErrVersion) {
			t.Fatalf("got %v, want ErrVersion", err)
		}
	})

	t.Run("bit-flips", func(t *testing.T) {
		// Flip every byte in turn: each flip must be caught by the integrity
		// trailer (payload flips) or the hash comparison (trailer flips).
		for i := len(magic); i < len(data); i++ {
			bad := append([]byte(nil), data...)
			bad[i] ^= 0x40
			if _, err := Decode(bad); !errors.Is(err, ErrIntegrity) {
				t.Fatalf("flip at %d: got %v, want ErrIntegrity", i, err)
			}
		}
	})

	t.Run("resealed-corruption", func(t *testing.T) {
		// An attacker (or a buggy writer) that flips payload bytes and
		// recomputes the trailer gets past the integrity hash; the structural
		// decode or the verification audit must still catch it.
		var caught int
		for i := len(magic); i < len(data)-32; i++ {
			bad := append([]byte(nil), data[:len(data)-32]...)
			bad[i] ^= 0x04
			bad = seal(bad)
			a, err := Decode(bad)
			if err == nil {
				err = a.Verify()
			}
			if err == nil {
				continue // some flips land in dont-care claim space that still verifies; none may panic
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVerify) && !errors.Is(err, ErrVersion) {
				t.Fatalf("reseal flip at %d: untyped error %v", i, err)
			}
			caught++
		}
		if caught == 0 {
			t.Fatal("no resealed corruption was caught")
		}
	})
}

// TestEncodeRejectsInconsistentKey: an artifact must never be born with a key
// that does not describe its plan.
func TestEncodeRejectsInconsistentKey(t *testing.T) {
	k, p := buildPlan(t, core.MM, protocols.PCR16().Ratio, 5, 3, "MMS")
	for _, bad := range []plancache.Key{
		func() plancache.Key { k2 := k; k2.Graph++; return k2 }(),
		func() plancache.Key { k2 := k; k2.Demand++; return k2 }(),
		func() plancache.Key { k2 := k; k2.Algo = "RMA"; return k2 }(),
	} {
		if _, err := Encode(bad, p); !errors.Is(err, ErrVerify) {
			t.Fatalf("Encode(%+v) = %v, want ErrVerify", bad, err)
		}
	}
	if _, err := Encode(k, nil); !errors.Is(err, ErrVerify) {
		t.Fatalf("Encode(nil plan) = %v, want ErrVerify", err)
	}
}

// TestVerifyCatchesStaleClaims: decoded aggregates that disagree with
// recomputation fail Verify even when the bytes are intact.
func TestVerifyCatchesStaleClaims(t *testing.T) {
	k, p := buildPlan(t, core.MTCS, protocols.PCR16().Ratio, 4, 2, "SRS")
	data, err := Encode(k, p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	a.Plan.Storage++ // stale claim
	if err := a.Verify(); !errors.Is(err, ErrVerify) {
		t.Fatalf("stale storage claim: got %v, want ErrVerify", err)
	}
	a.Plan.Storage--
	a.Plan.Stats.Waste++
	if err := a.Verify(); !errors.Is(err, ErrVerify) {
		t.Fatalf("stale waste claim: got %v, want ErrVerify", err)
	}
}

// seal recomputes the integrity trailer over a mutated payload — modelling a
// buggy writer whose bytes are self-consistent but semantically wrong.
func seal(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append(payload, sum[:]...)
}

// nonChildArtifact encodes a real plan, MM over Table 2's Ex.1 at D=20 on
// four MMS mixers, after re-pointing one task's source at a spare of a base
// node whose vector equals, but which is not, the child the source
// instantiated. The schedule, stats and storage are rebuilt for the changed
// forest, so every claim is consistent and every task's inputs still
// average to its vector: only the premise of DESIGN §14's lemma is broken,
// and the error intervals served for the plan were never proved for it.
func nonChildArtifact(t testing.TB) []byte {
	t.Helper()
	g, err := core.MM.Build(protocols.Table2()[0].Ratio)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := forest.BuildPacked(new(forest.PackedBuilder), g, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !rerouteToEqualVector(pf) {
		t.Fatal("test premise: no source can be re-pointed at an equal-vector node")
	}
	f := pf.Materialize() // consumers follow the sources
	s, err := sched.MMS(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(plancache.KeyFor(g, 20, 4, "MMS", plancache.PristinePolicy), plancache.NewPlan(f, s))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// rerouteToEqualVector points the first FromTask source it can at an
// earlier task of a different base node with an equal vector and a free
// output.
func rerouteToEqualVector(pf *forest.PackedForest) bool {
	vecs, formed := pf.Base.Vectors(), pf.Materialize()
	for j := range pf.Tasks {
		for k, src := range pf.Tasks[j].In {
			if src.Kind() != forest.FromTask {
				continue
			}
			child := pf.Tasks[src.Ref()].Base
			for q := range j {
				if v := pf.Tasks[q].Base; v != child && vecs[v].Equal(vecs[child]) && formed.Tasks[q].FreeOutputs() > 0 {
					pf.Tasks[j].In[k] = forest.TaskSource(int32(q))
					return true
				}
			}
		}
	}
	return false
}

// TestVerifyRejectsNonChildSource: an artifact whose task reads an input
// from an equal-vector node that is not its base node's child decodes, and
// its pointer forms pass the arithmetic audit, but verification must refuse
// it: the audit checks the lemma's premise, not just the vectors.
func TestVerifyRejectsNonChildSource(t *testing.T) {
	data := nonChildArtifact(t)
	a, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if rep := audit.CheckForms(a.Plan); !rep.Clean() {
		t.Fatalf("test premise: the pointer forms must pass, so only the premise is broken: %v", rep.Err())
	}
	if _, err := DecodeVerified(data); !errors.Is(err, ErrVerify) {
		t.Fatalf("non-child source: DecodeVerified err = %v, want ErrVerify", err)
	}
}
