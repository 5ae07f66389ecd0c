package artifact

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/protocols"
)

// FuzzArtifactDecode drives arbitrary bytes through Decode + Verify. The
// contract under fuzz is total: any input either decodes to a plan that
// passes the full audit, and its pointer-form twin once materialized, or
// returns a typed error — no panics, no unbounded allocation, no silently
// wrong plan. The corpus seeds valid artifacts (so
// the fuzzer mutates from deep inside the format) plus hand-corrupted
// variants of the classes the decoder and the audit must catch.
func FuzzArtifactDecode(f *testing.F) {
	for _, algo := range []core.Algorithm{core.MM, core.RMA} {
		for _, scheduler := range []string{"MMS", "SRS"} {
			k, p := buildPlan(f, algo, protocols.PCR16().Ratio, 5, 3, scheduler)
			data, err := Encode(k, p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
			// Seed corrupt variants: truncation, payload flip, resealed flip.
			f.Add(data[:len(data)/2])
			flipped := append([]byte(nil), data...)
			flipped[len(flipped)/2] ^= 0xff
			f.Add(flipped)
			resealed := append([]byte(nil), data[:len(data)-32]...)
			resealed[len(resealed)/3] ^= 0x01
			f.Add(seal(resealed))
		}
	}
	// A schedule that is a window of its forest (TestDecodeVerifiedRejectsWindowSchedule).
	k, p := buildPlan(f, core.MM, protocols.PCR16().Ratio, 20, 3, "MMS")
	data, err := Encode(k, p)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(windowBytes(f, data, len(p.Slots())))
	f.Add([]byte{})
	f.Add([]byte("DMFBART1"))
	f.Add([]byte("DMFBART1\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	// Sealed forest breaches (TestDecodeRejectsCorruptForests).
	for _, c := range corruptForests(f) {
		f.Add(c.data)
	}
	// A source from an equal-vector non-child node (TestVerifyRejectsNonChildSource).
	f.Add(nonChildArtifact(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Decode(data)
		if err != nil {
			return
		}
		// Structural decode succeeded; Verify must not panic either way,
		// and a plan it accepts must materialize into pointer forms that
		// the reference audit passes too.
		if a.Verify() != nil {
			return
		}
		if rep := audit.CheckForms(a.Plan); !rep.Clean() {
			t.Fatalf("verified artifact fails the pointer-form audit: %v", rep.Err())
		}
	})
}
