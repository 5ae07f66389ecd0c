package artifact

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"

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
// original aggregates, and re-encodes to byte-identical artifacts (the
// determinism the cross-node content addresses rely on).
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

// windowPlan re-schedules p as a window past its last task: every slot
// empty, no cycles, no storage, the form of a persistent batch that
// schedules nothing of its forest.
func windowPlan(p *plancache.Plan) *plancache.Plan {
	f := p.Forest()
	n := len(f.Tasks)
	s := &sched.Schedule{Forest: f, Mixers: p.Mixers, Algorithm: p.Schedule().Algorithm,
		FirstTask: n, Slots: make([]sched.Assignment, n)}
	return plancache.FromForms(f, s, p.Stats, 0)
}

// TestDecodeVerifiedRejectsWindowSchedule: a plan artifact whose schedule
// is a window is corrupt. A plan schedules every task of its forest; the
// D=20 PCR MMS plan re-scheduled as a window past its last task would
// otherwise pass as a plan of 0 cycles and 0 storage units, and a plan
// cache holding it would stream 20 droplets in no time.
func TestDecodeVerifiedRejectsWindowSchedule(t *testing.T) {
	k, p := buildPlan(t, core.MM, protocols.PCR16().Ratio, 20, 3, "MMS")
	data, err := Encode(k, windowPlan(p))
	if err != nil {
		t.Fatal(err)
	}
	if a, err := DecodeVerified(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("window schedule: DecodeVerified err = %v (plan %+v), want ErrCorrupt", err, a)
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
