package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func snapRecords() []Record {
	return []Record{
		{Kind: KindSessionOpen, Session: "s1", Fingerprint: "fp", Spec: &Spec{Ratio: "1:3"}},
		{Kind: KindBatchDone, Session: "s1", Batch: 1, Demand: 8, StartCycle: 1, Emitted: 8},
		{Kind: KindBatchDone, Session: "s1", Batch: 2, Demand: 4, StartCycle: 9, Emitted: 4},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	in := snapRecords()
	// Deliberately stale sequence numbers: EncodeFrames renumbers from 1.
	in[0].Seq, in[1].Seq, in[2].Seq = 40, 41, 42
	data, err := EncodeFrames(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeFrames(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d records, want %d", len(out), len(in))
	}
	for i, rec := range out {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, rec.Seq, i+1)
		}
		if rec.Kind != in[i].Kind || rec.Session != in[i].Session ||
			rec.Batch != in[i].Batch || rec.StartCycle != in[i].StartCycle || rec.Emitted != in[i].Emitted {
			t.Fatalf("record %d = %+v, want fields of %+v", i, rec, in[i])
		}
	}
}

func TestSnapshotEmptyIsJustMagic(t *testing.T) {
	data, err := EncodeFrames(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != magic {
		t.Fatalf("empty snapshot = %q, want bare magic", data)
	}
	recs, err := DecodeFrames(data)
	if err != nil || len(recs) != 0 {
		t.Fatalf("decode empty snapshot: %v, %d records", err, len(recs))
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	data, err := EncodeFrames(snapRecords())
	if err != nil {
		t.Fatal(err)
	}
	// Every single-byte flip anywhere in the stream must be refused whole
	// with a typed corruption error — never a partial decode.
	for i := 0; i < len(data); i++ {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x01
		if _, err := DecodeFrames(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d decoded without typed corruption: %v", i, err)
		}
	}
	// Truncations too.
	for _, cut := range []int{len(data) - 1, len(data) / 2, len(magic) + 3, 2} {
		if _, err := DecodeFrames(data[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes decoded without typed corruption: %v", cut, err)
		}
	}
}

// TestReplayAndSnapshotReportTheSameCorruption feeds each kind of corrupt
// stream both to log replay (Replay and Open read it as a file) and to
// DecodeFrames: the two entry points share one frame decoder, so they must
// report the same CorruptError. Replay keeps the good prefix; a snapshot
// is refused whole.
func TestReplayAndSnapshotReportTheSameCorruption(t *testing.T) {
	valid, err := EncodeFrames(snapRecords())
	if err != nil {
		t.Fatal(err)
	}
	firstFrame := len(magic) + frameHdr + int(binary.LittleEndian.Uint32(valid[len(magic):]))
	appendFrame := func(payload []byte, length uint32) []byte {
		var hdr [frameHdr]byte
		binary.LittleEndian.PutUint32(hdr[0:4], length)
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
		return append(append(append([]byte(nil), valid...), hdr[:]...), payload...)
	}
	gap := Record{Seq: 5, Kind: KindSessionEvict, Session: "s1"}
	gapFrame, err := frame(append([]byte(nil), valid...), &gap)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		data   []byte
		reason string
	}{
		{"bad magic", append([]byte("DMFBWAL0"), valid[len(magic):]...), "bad magic"},
		{"short magic", valid[:5], "short or missing magic header"},
		{"torn header", valid[:firstFrame+3], "truncated frame header"},
		{"torn payload", valid[:len(valid)-2], "truncated payload"},
		{"impossible length", appendFrame(nil, maxPayload+1), "impossible payload length"},
		{"crc flip", func() []byte {
			b := append([]byte(nil), valid...)
			b[firstFrame+frameHdr+2] ^= 0x10
			return b
		}(), "checksum mismatch"},
		{"bad json", appendFrame([]byte("{not json"), 9), "undecodable payload"},
		{"sequence gap", gapFrame, "sequence 5 after 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeFrames(tc.data)
			var snap *CorruptError
			if !errors.As(err, &snap) {
				t.Fatalf("DecodeFrames: %v, want a *CorruptError", err)
			}
			if !strings.HasPrefix(snap.Reason, tc.reason) {
				t.Errorf("reason %q, want prefix %q", snap.Reason, tc.reason)
			}
			path := filepath.Join(t.TempDir(), "dmfbd.wal")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			recs, err := Replay(path)
			var replay *CorruptError
			if !errors.As(err, &replay) {
				t.Fatalf("Replay: %v, want a *CorruptError", err)
			}
			if *replay != *snap {
				t.Errorf("Replay reports %+v, DecodeFrames %+v", *replay, *snap)
			}
			if len(recs) != replay.Records {
				t.Errorf("Replay kept %d records, corruption says %d", len(recs), replay.Records)
			}
			l, info, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if info.Corrupt == nil || *info.Corrupt != *snap {
				t.Errorf("Open reports %+v, DecodeFrames %+v", info.Corrupt, *snap)
			}
		})
	}
}
