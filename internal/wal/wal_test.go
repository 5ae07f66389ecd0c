package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func tmpLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "dmfbd.wal")
}

func openRec(session string) Record {
	return Record{Kind: KindSessionOpen, Session: session, Fingerprint: "fp",
		Spec: &Spec{Ratio: "2:1:1:1:1:1:9", Scheduler: "SRS"}}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := tmpLog(t)
	l, info, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Records) != 0 || info.Corrupt != nil {
		t.Fatalf("fresh log replayed %d records, corrupt %v", len(info.Records), info.Corrupt)
	}
	want := []Record{
		openRec("s1"),
		{Kind: KindBatchAccept, Session: "s1", Batch: 1, Demand: 8},
		{Kind: KindBatchDone, Session: "s1", Batch: 1, Demand: 8, StartCycle: 1, Emitted: 8},
		{Kind: KindPlanKey, Spec: &Spec{Ratio: "1:3"}, Demand: 4},
		{Kind: KindSessionEvict, Session: "s1"},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, g := range got {
		if g.Seq != uint64(i+1) {
			t.Errorf("record %d seq = %d", i, g.Seq)
		}
		if g.Kind != want[i].Kind || g.Session != want[i].Session || g.Demand != want[i].Demand {
			t.Errorf("record %d = %+v, want %+v", i, g, want[i])
		}
	}

	// Re-open continues the sequence and keeps the history.
	l2, info2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(info2.Records) != len(want) || info2.Corrupt != nil {
		t.Fatalf("reopen replayed %d records, corrupt %v", len(info2.Records), info2.Corrupt)
	}
	if l2.NextSeq() != uint64(len(want)+1) {
		t.Fatalf("NextSeq = %d, want %d", l2.NextSeq(), len(want)+1)
	}
	if err := l2.Append(openRec("s2")); err != nil {
		t.Fatal(err)
	}
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	recs, err := Replay(filepath.Join(t.TempDir(), "nope.wal"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("Replay(missing) = %d records, %v", len(recs), err)
	}
}

// corruptAt flips one byte of the file.
func corruptAt(t *testing.T, path string, off int64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[off] ^= 0x41
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func writeLog(t *testing.T, path string, n int) {
	t.Helper()
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := l.Append(openRec(fmt.Sprintf("s%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayBitFlipIsTypedCorrupt(t *testing.T) {
	path := tmpLog(t)
	writeLog(t, path, 3)
	st, _ := os.Stat(path)
	// Flip a byte inside the second record's payload region.
	corruptAt(t, path, st.Size()/2)
	recs, err := Replay(path)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err %T does not carry *CorruptError", err)
	}
	if len(recs) != ce.Records {
		t.Errorf("returned %d records, CorruptError says %d", len(recs), ce.Records)
	}
	if len(recs) >= 3 {
		t.Errorf("corruption mid-log must not replay all records (got %d)", len(recs))
	}
}

func TestReplayTruncationIsTypedCorrupt(t *testing.T) {
	path := tmpLog(t)
	writeLog(t, path, 3)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(b) - 1; cut > len(magic); cut -= 7 {
		if err := os.WriteFile(path, b[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := Replay(path)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: err = %v, want ErrCorrupt", cut, err)
		}
		if len(recs) >= 3 {
			t.Fatalf("cut=%d: truncated log replayed all %d records", cut, len(recs))
		}
	}
}

func TestReplayDuplicateRecordIsTypedCorrupt(t *testing.T) {
	path := tmpLog(t)
	writeLog(t, path, 2)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate the final frame byte-for-byte: the checksum is fine but the
	// repeated sequence number must be rejected.
	off := int64(len(magic))
	var lastStart int64
	for off < int64(len(b)) {
		lastStart = off
		n := binary.LittleEndian.Uint32(b[off : off+4])
		off += frameHdr + int64(n)
	}
	dup := append(append([]byte{}, b...), b[lastStart:]...)
	if err := os.WriteFile(path, dup, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := Replay(path)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt for duplicated record", err)
	}
	if len(recs) != 2 {
		t.Fatalf("good prefix = %d records, want 2", len(recs))
	}
}

func TestOpenRepairsTornTail(t *testing.T) {
	path := tmpLog(t)
	writeLog(t, path, 4)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last frame in half — the shape a crash mid-append leaves.
	if err := os.WriteFile(path, b[:len(b)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	l, info, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Corrupt == nil {
		t.Fatal("torn tail not reported")
	}
	if len(info.Records) != 3 {
		t.Fatalf("good prefix = %d records, want 3", len(info.Records))
	}
	// The log keeps working after the repair, continuing the sequence.
	if err := l.Append(openRec("post-tear")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := Replay(path)
	if err != nil {
		t.Fatalf("repaired log replays dirty: %v", err)
	}
	if len(recs) != 4 || recs[3].Session != "post-tear" {
		t.Fatalf("after repair: %d records, last %+v", len(recs), recs[len(recs)-1])
	}
}

func TestOpenRepairsGarbageHeader(t *testing.T) {
	path := tmpLog(t)
	if err := os.WriteFile(path, []byte("not a wal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, info, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if info.Corrupt == nil || len(info.Records) != 0 {
		t.Fatalf("garbage header: records=%d corrupt=%v", len(info.Records), info.Corrupt)
	}
	if err := l.Append(openRec("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, err := Replay(path)
	if err != nil || len(recs) != 1 {
		t.Fatalf("after header repair: %d records, %v", len(recs), err)
	}
}

func TestConcurrentAppendsGroupCommit(t *testing.T) {
	path := tmpLog(t)
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 16, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append(openRec(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != writers*per {
		t.Fatalf("replayed %d records, want %d", len(recs), writers*per)
	}
}

// TestGroupCommitSingleFsync stages a burst of records while no flusher is
// running and verifies the whole batch becomes durable with exactly one
// write+fsync — the group-commit contract.
func TestGroupCommitSingleFsync(t *testing.T) {
	path := tmpLog(t)
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	obs.Enable(obs.Options{})
	defer obs.Disable()
	l.mu.Lock()
	for i := 0; i < 20; i++ {
		r := openRec(fmt.Sprintf("burst-%d", i))
		if _, err := l.stageLocked(&r); err != nil {
			l.mu.Unlock()
			t.Fatal(err)
		}
	}
	l.mu.Unlock()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := obs.TakeSnapshot().Histograms["wal.fsync_ms"].Count; got != 1 {
		t.Fatalf("fsyncs = %d for a 20-record staged burst, want 1", got)
	}
	recs, err := Replay(path)
	if err != nil || len(recs) != 20 {
		t.Fatalf("replay after burst: %d records, %v", len(recs), err)
	}
}

func TestRewriteCompacts(t *testing.T) {
	path := tmpLog(t)
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := l.Append(openRec(fmt.Sprintf("s%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	big := l.Size()
	live := []Record{openRec("keep"), {Kind: KindBatchDone, Session: "keep", Batch: 1, Demand: 4, Emitted: 4}}
	if err := l.Rewrite(live); err != nil {
		t.Fatal(err)
	}
	if l.Size() >= big {
		t.Errorf("compaction did not shrink: %d -> %d bytes", big, l.Size())
	}
	// Appends continue from the compacted sequence.
	if err := l.Append(openRec("after")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Session != "keep" || recs[2].Session != "after" {
		t.Fatalf("compacted log = %+v", recs)
	}
}

// TestReplayWarmLogUnder250ms pins the acceptance bound: replaying a warm
// log — hundreds of sessions with their batch history plus plan keys — must
// stay well under the 250 ms rolling-restart budget.
func TestReplayWarmLogUnder250ms(t *testing.T) {
	path := tmpLog(t)
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		s := fmt.Sprintf("sess-%d", i)
		l.Append(openRec(s))
		l.Append(Record{Kind: KindBatchAccept, Session: s, Batch: 1, Demand: 8})
		l.Append(Record{Kind: KindBatchDone, Session: s, Batch: 1, Demand: 8, StartCycle: 1, Emitted: 8})
	}
	for i := 0; i < 100; i++ {
		l.Append(Record{Kind: KindPlanKey, Spec: &Spec{Ratio: "1:3"}, Demand: 2 + i})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	recs, err := Replay(path)
	d := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1000 {
		t.Fatalf("replayed %d records", len(recs))
	}
	if d > 250*time.Millisecond {
		t.Errorf("warm replay took %v, budget 250ms", d)
	}
}

// TestObsDisabledAllocFree pins the disabled-path cost of the WAL's obs
// instrumentation: with observability off, the counter and histogram hooks
// on the append/fsync path must not allocate.
func TestObsDisabledAllocFree(t *testing.T) {
	obs.Disable()
	allocs := testing.AllocsPerRun(1000, func() {
		obs.Inc("wal.appends")
		obs.Observe("wal.append_ms", 0.42)
		obs.Inc("wal.fsyncs")
		obs.Observe("wal.fsync_ms", 0.17)
		obs.Observe("wal.group_bytes", 128)
	})
	if allocs != 0 {
		t.Fatalf("disabled obs hooks allocate %v per run, want 0", allocs)
	}
}

// rawFrame frames payload as the log does, with a valid checksum.
func rawFrame(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crcTable))
	return append(b, payload...)
}

// TestUnknownFieldIsIntactCorrupt: an intact, checksummed frame whose
// record names a field no record has is a record this version cannot read,
// not a torn tail. Replay and DecodeFrames report it as a typed
// *CorruptError marked Intact, and Open refuses the log and leaves every
// byte of it in place instead of truncating the frame away.
func TestUnknownFieldIsIntactCorrupt(t *testing.T) {
	path := tmpLog(t)
	writeLog(t, path, 2)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string]string{
		"record": `{"seq":3,"kind":4,"session":"s","batch":1,"future":true}`,
		"spec":   `{"seq":3,"kind":6,"spec":{"ratio":"1:3","future":2},"demand":4}`,
	} {
		t.Run(name, func(t *testing.T) {
			data := append(bytes.Clone(b), rawFrame([]byte(payload))...)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var ce *CorruptError
			recs, err := Replay(path)
			if !errors.As(err, &ce) || !errors.Is(err, ErrCorrupt) || !ce.Intact || len(recs) != 2 || ce.Records != 2 {
				t.Fatalf("Replay: %d records, err %v (%+v), want the 2 before an intact *CorruptError", len(recs), err, ce)
			}
			if _, err := DecodeFrames(data); !errors.As(err, &ce) || !ce.Intact {
				t.Fatalf("DecodeFrames: err %v, want an intact *CorruptError", err)
			}
			l, info, err := Open(path)
			if !errors.As(err, &ce) || !errors.Is(err, ErrCorrupt) || !ce.Intact || l != nil || info != nil {
				t.Fatalf("Open: log %v, info %v, err %v; want only an intact *CorruptError", l, info, err)
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
				t.Fatalf("Open changed the log (%d bytes, was %d): %v", len(after), len(data), err)
			}
		})
	}
}
