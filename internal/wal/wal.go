// Package wal is the write-ahead session log of the dmfbd daemon: an
// append-only, checksummed, fsync-batched record log of session lifecycle
// events (open, batch accept/done/fail, evict) and plan-cache warm keys.
// On boot the daemon replays the log to resume — or typed-fail — the
// sessions that were in flight when the previous process died, turning
// graceful drain into crash-tolerant restart.
//
// On-disk format: an 8-byte magic header followed by length-prefixed
// frames, each `[u32 len][u32 crc32c(payload)][payload]` with the payload a
// JSON-encoded Record carrying a contiguous 1-based sequence number.
// Replay validates every frame; any structural violation — bad magic,
// impossible length, checksum mismatch, undecodable payload, sequence gap
// or repeat, truncated tail — yields a typed *CorruptError wrapping
// ErrCorrupt together with every record that replayed cleanly before it.
// Nothing is ever silently dropped: the caller always learns both the good
// prefix and the exact corruption. Open repairs a torn log by truncating it
// at the end of the good prefix (the expected shape after a crash mid
// append) and resumes appending there.
//
// Durability is group-committed: concurrent Appends coalesce into one
// write+fsync performed by whichever appender becomes the flush leader, so
// a burst of N session events costs one disk sync, not N. Append returns
// only after its record is durable; AppendAsync enqueues without waiting
// (used for advisory records like plan-cache warm keys, whose loss is
// harmless). Append/fsync latencies and group sizes are recorded in the obs
// registry behind the usual disabled-path atomic load.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

const (
	magic = "DMFBWAL1"
	// maxPayload bounds a frame's declared payload length; anything larger
	// is corruption, not a record (it also keeps a bit-flipped length field
	// from allocating gigabytes on replay).
	maxPayload = 1 << 20
	frameHdr   = 8 // u32 len + u32 crc
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Log is an open write-ahead log. Methods are safe for concurrent use.
type Log struct {
	path string

	mu       sync.Mutex
	cond     *sync.Cond
	f        *os.File
	pending  []byte // framed records not yet handed to the OS
	tail     int64  // logical size including pending
	durable  int64  // offset through which the file is fsynced
	flushing bool   // a flush leader is writing outside the lock
	seq      uint64
	ioErr    error // sticky: after an IO error the log refuses appends
	closed   bool
}

// ReplayInfo is what Open learned from the existing log.
type ReplayInfo struct {
	// Records is the clean prefix of the log, in append order.
	Records []Record
	// Corrupt is non-nil when the log ended in (or contained) a corrupt
	// frame; Records then holds everything before it and Open truncated the
	// file at the end of that good prefix.
	Corrupt *CorruptError
}

// Open opens (creating if absent) the log at path for appending, replaying
// its existing records first. A corrupt tail — the expected shape after a
// crash tore a frame in half — is reported in ReplayInfo.Corrupt and
// repaired by truncating to the good prefix. A frame that is intact but
// names a field this version does not know is no torn tail: Open leaves
// the file as it is and returns its *CorruptError (Intact), wrapping
// ErrCorrupt, and no log. Otherwise only real IO errors return a non-nil
// error.
func Open(path string) (*Log, *ReplayInfo, error) {
	if dir := filepath.Dir(path); dir != "" && dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	info := &ReplayInfo{}
	recs, good, corr, rerr := replayFile(f)
	if rerr != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", rerr)
	}
	if corr != nil && corr.Intact {
		f.Close()
		return nil, nil, corr
	}
	info.Records = recs
	info.Corrupt = corr
	if good == 0 {
		// Empty or header-corrupt file: (re)write the magic.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		if _, err := f.WriteAt([]byte(magic), 0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		good = int64(len(magic))
	} else if corr != nil {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	var lastSeq uint64
	if len(recs) > 0 {
		lastSeq = recs[len(recs)-1].Seq
	}
	l := &Log{path: path, f: f, tail: good, durable: good, seq: lastSeq}
	l.cond = sync.NewCond(&l.mu)
	return l, info, nil
}

// Replay reads the log at path without opening it for writes. It returns
// every record of the clean prefix; a structurally invalid log additionally
// returns a *CorruptError wrapping ErrCorrupt (the records before the
// corruption are still returned). A missing file is an empty log.
func Replay(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	recs, _, corr, rerr := replayFile(f)
	if rerr != nil {
		return recs, fmt.Errorf("wal: %w", rerr)
	}
	if corr != nil {
		return recs, corr
	}
	return recs, nil
}

// replayFile reads a log file and decodes it with decodeFrames: the clean
// records, the offset one past the last clean frame, the corruption (if
// any), and a real IO error (if any). A zero-length file is a valid empty
// log with goodOffset 0 (the caller writes the magic).
func replayFile(f *os.File) (recs []Record, goodOffset int64, corr *CorruptError, ioErr error) {
	st, err := f.Stat()
	if err != nil {
		return nil, 0, nil, err
	}
	if st.Size() == 0 {
		return nil, 0, nil, nil
	}
	data := make([]byte, st.Size())
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, st.Size()), data); err != nil {
		return nil, 0, nil, err
	}
	recs, goodOffset, corr = decodeFrames(data)
	return recs, goodOffset, corr, nil
}

// decodeFrames is the one DMFBWAL1 frame decoder, behind both log replay
// and snapshot decoding (DecodeFrames). It parses the magic header and
// then frames up to the end of data, and returns the records of the clean
// prefix, the offset one past it (0 when the header itself is bad) and the
// first structural violation, if any. Replay keeps the prefix; a snapshot
// refuses the whole stream.
func decodeFrames(data []byte) (recs []Record, goodOffset int64, corr *CorruptError) {
	if len(data) < len(magic) {
		return nil, 0, &CorruptError{Offset: 0, Reason: "short or missing magic header"}
	}
	if string(data[:len(magic)]) != magic {
		return nil, 0, &CorruptError{Offset: 0, Reason: fmt.Sprintf("bad magic %q", data[:len(magic)])}
	}
	off := len(magic)
	var lastSeq uint64
	fail := func(reason string) ([]Record, int64, *CorruptError) {
		return recs, int64(off), &CorruptError{Offset: int64(off), Reason: reason, Records: len(recs)}
	}
	for off < len(data) {
		if len(data)-off < frameHdr {
			return fail("truncated frame header")
		}
		n := binary.LittleEndian.Uint32(data[off : off+4])
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n == 0 || n > maxPayload {
			return fail(fmt.Sprintf("impossible payload length %d", n))
		}
		if len(data)-off-frameHdr < int(n) {
			return fail("truncated payload")
		}
		payload := data[off+frameHdr : off+frameHdr+int(n)]
		if crc32.Checksum(payload, crcTable) != sum {
			return fail("checksum mismatch")
		}
		var rec Record
		if err := decodePayload(payload, &rec); err != nil {
			recs, good, corr := fail("undecodable payload: " + err.Error())
			corr.Intact = errors.Is(err, errUnknownField)
			return recs, good, corr
		}
		if err := rec.validate(lastSeq); err != nil {
			return fail(err.Error())
		}
		recs = append(recs, rec)
		lastSeq = rec.Seq
		off += frameHdr + int(n)
	}
	return recs, int64(off), nil
}

// frame appends the encoded frame of rec to dst.
func frame(dst []byte, rec *Record) ([]byte, error) {
	payload, err := encodePayload(rec)
	if err != nil {
		return dst, err
	}
	if len(payload) > maxPayload {
		return dst, fmt.Errorf("record payload %d bytes exceeds limit", len(payload))
	}
	var hdr [frameHdr]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...), nil
}

// Append assigns the record its sequence number, stages it and returns once
// it is durably on disk. Concurrent appends group-commit: one leader writes
// and fsyncs every staged record in a single batch.
func (l *Log) Append(rec Record) error {
	t0 := time.Now()
	l.mu.Lock()
	target, err := l.stageLocked(&rec)
	if err != nil {
		l.mu.Unlock()
		return err
	}
	err = l.waitDurableLocked(target)
	l.mu.Unlock()
	obs.Inc("wal.appends")
	obs.Observe("wal.append_ms", float64(time.Since(t0).Microseconds())/1000)
	return err
}

// AppendAsync stages the record and schedules a flush without waiting for
// durability. Used for advisory records (plan-cache warm keys, evictions)
// whose loss across a crash is harmless; ordering relative to synchronous
// appends is still preserved, and any later Append flushes them too.
func (l *Log) AppendAsync(rec Record) error {
	l.mu.Lock()
	target, err := l.stageLocked(&rec)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	obs.Inc("wal.appends_async")
	go func() {
		l.mu.Lock()
		l.waitDurableLocked(target)
		l.mu.Unlock()
	}()
	return nil
}

// Sync flushes everything staged so far and returns once it is durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waitDurableLocked(l.tail)
}

// stageLocked assigns the next sequence number, frames the record into the
// pending buffer and returns the logical offset its durability requires.
func (l *Log) stageLocked(rec *Record) (int64, error) {
	if l.closed {
		return 0, fmt.Errorf("wal: log is closed")
	}
	if l.ioErr != nil {
		return 0, l.ioErr
	}
	l.seq++
	rec.Seq = l.seq
	staged := len(l.pending)
	var err error
	l.pending, err = frame(l.pending, rec)
	if err != nil {
		l.seq--
		return 0, fmt.Errorf("wal: %w", err)
	}
	// The tail advances by the framed bytes; it cannot be recomputed as
	// durable+len(pending), because while a flush leader is in flight the
	// bytes it took live in neither — that recomputation understated the
	// target and let Append/Close return before this record was on disk.
	l.tail += int64(len(l.pending) - staged)
	return l.tail, nil
}

// waitDurableLocked blocks until the log is durable through target, taking
// the flush-leader role when no one else holds it. Callers hold l.mu.
func (l *Log) waitDurableLocked(target int64) error {
	for l.durable < target {
		if l.ioErr != nil {
			return l.ioErr
		}
		if l.flushing {
			l.cond.Wait()
			continue
		}
		// Become the leader: take the whole pending buffer (group commit).
		buf := l.pending
		l.pending = nil
		end := l.durable + int64(len(buf))
		l.flushing = true
		l.mu.Unlock()

		t0 := time.Now()
		_, werr := l.f.Write(buf)
		if werr == nil {
			werr = l.f.Sync()
		}
		if obs.Enabled() {
			obs.Inc("wal.fsyncs")
			obs.Observe("wal.fsync_ms", float64(time.Since(t0).Microseconds())/1000)
			obs.Observe("wal.group_bytes", float64(len(buf)))
		}

		l.mu.Lock()
		l.flushing = false
		if werr != nil {
			l.ioErr = fmt.Errorf("wal: %w", werr)
		} else {
			l.durable = end
		}
		l.cond.Broadcast()
	}
	return l.ioErr
}

// NextSeq returns the sequence number the next append will receive.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq + 1
}

// Size returns the durable size of the log in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Rewrite atomically replaces the log's contents with the given records —
// the boot-time compaction: recovery folds the old log into per-session
// state and rewrites only what is still live. Records are renumbered from
// sequence 1 in the given order. The swap is write-temp + fsync + rename,
// so a crash mid-compaction leaves either the old or the new log intact.
func (l *Log) Rewrite(recs []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if err := l.waitDurableLocked(l.tail); err != nil {
		return err
	}
	tmp := l.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	buf := make([]byte, 0, 4096)
	buf = append(buf, magic...)
	for i := range recs {
		rec := recs[i]
		rec.Seq = uint64(i + 1)
		if buf, err = frame(buf, &rec); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("wal: %w", err)
		}
	}
	if _, err := f.Write(buf); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, l.path); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	old := l.f
	l.f = f
	old.Close()
	l.seq = uint64(len(recs))
	l.durable = int64(len(buf))
	l.tail = l.durable
	obs.Inc("wal.compactions")
	return nil
}

// Close flushes pending records and closes the file. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.waitDurableLocked(l.tail)
	l.closed = true
	f := l.f
	l.mu.Unlock()
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: %w", cerr)
	}
	return err
}
