package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay feeds arbitrary bytes to the replay path. The contract
// under fuzzing: Replay never panics; it either succeeds — in which case
// every record is structurally valid with contiguous sequence numbers — or
// it fails with a typed error wrapping ErrCorrupt that still carries the
// clean prefix. Truncations, bit flips and duplications of valid logs are
// seeded explicitly.
func FuzzWALReplay(f *testing.F) {
	// A valid log built through the real encoder.
	valid := buildValidLog(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                                                                                   // torn tail
	f.Add(append(append([]byte{}, valid...), valid[8:]...))                                                       // duplicated records
	f.Add([]byte(magic))                                                                                          // empty log
	f.Add([]byte("DMFBWAL2"))                                                                                     // wrong version
	f.Add([]byte{})                                                                                               // empty file
	f.Add(append([]byte(magic), 0xff, 0xff, 0xff, 0xff, 0))                                                       // absurd length
	f.Add(append(append([]byte{}, valid...), rawFrame([]byte(`{"seq":6,"kind":5,"session":"a","future":1}`))...)) // unknown field
	if flipped := append([]byte{}, valid...); len(flipped) > 20 {
		flipped[len(flipped)/2] ^= 0x10
		f.Add(flipped) // bit flip
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		recs, err := Replay(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-typed replay error: %v", err)
			}
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("replay error %T lacks *CorruptError detail", err)
			}
			if ce.Records != len(recs) {
				t.Fatalf("CorruptError.Records = %d but %d records returned", ce.Records, len(recs))
			}
		}
		for i, r := range recs {
			if r.Seq != uint64(i+1) {
				t.Fatalf("record %d has seq %d", i, r.Seq)
			}
			if !r.Kind.valid() {
				t.Fatalf("record %d has invalid kind %d", i, r.Kind)
			}
		}
		// Whatever replayed must survive Open's repair and replay cleanly
		// afterwards — the daemon's boot path — unless an intact frame
		// names an unknown field: then Open refuses the log untouched.
		var ce *CorruptError
		l, info, err := Open(path)
		if errors.As(err, &ce) && ce.Intact {
			if after, rerr := os.ReadFile(path); rerr != nil || string(after) != string(data) {
				t.Fatalf("Open refused the log (%v) but changed it", err)
			}
			return
		}
		if err != nil {
			t.Skip() // real IO errors only
		}
		if len(info.Records) != len(recs) {
			t.Fatalf("Open replayed %d records, Replay %d", len(info.Records), len(recs))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Replay(path); err != nil {
			t.Fatalf("log still dirty after Open repair: %v", err)
		}
	})
}

func buildValidLog(f *testing.F) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.wal")
	l, _, err := Open(path)
	if err != nil {
		f.Fatal(err)
	}
	l.Append(Record{Kind: KindSessionOpen, Session: "a", Fingerprint: "fp",
		Spec: &Spec{Ratio: "2:1:1:1:1:1:9", Scheduler: "SRS", Mixers: 3}})
	l.Append(Record{Kind: KindBatchAccept, Session: "a", Batch: 1, Demand: 8})
	l.Append(Record{Kind: KindBatchDone, Session: "a", Batch: 1, Demand: 8, StartCycle: 1, Emitted: 8})
	l.Append(Record{Kind: KindPlanKey, Spec: &Spec{Ratio: "1:3"}, Demand: 4})
	l.Append(Record{Kind: KindSessionEvict, Session: "a"})
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return b
}
