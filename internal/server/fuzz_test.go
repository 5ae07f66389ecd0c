package server

import "testing"

// FuzzAdoptSnapshot feeds arbitrary bytes to adopt's decode path: DMFBWAL1
// frames without repair, the fold boot recovery shares, and the WAL spec
// codec. It never panics, and it either rejects the snapshot with an error
// and no session, or returns the one consistent session the path names, with
// contiguous batch ordinals and a spec that survives the codec.
func FuzzAdoptSnapshot(f *testing.F) {
	const name = "fuzz"
	valid, rejected := adoptTableSnapshots(f, name, 1, 6)
	f.Add(valid)
	for _, body := range rejected {
		f.Add(body)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := decodeSnapshot(name, data)
		if err != nil {
			if rs != nil {
				t.Fatalf("rejected snapshot (%v) returned a session", err)
			}
			return
		}
		if rs.name != name || rs.spec == nil || rs.broken != "" || rs.evicted {
			t.Fatalf("accepted an unusable session: %+v", rs)
		}
		for i, b := range rs.batches {
			if b.ord != i+1 {
				t.Fatalf("batch %d has ordinal %d", i, b.ord)
			}
		}
		back, err := specFromWAL(specToWAL(rs.spec), 1)
		if err != nil || back.fingerprint() != rs.spec.fingerprint() {
			t.Fatalf("accepted spec %q does not survive the codec: %v", rs.spec.fingerprint(), err)
		}
	})
}
