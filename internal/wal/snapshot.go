package wal

import "fmt"

// Session snapshots: migration ships one session's records between nodes in
// exactly the on-disk log format — magic header plus checksummed frames with
// contiguous sequence numbers from 1. Reusing the DMFBWAL1 encoding means
// the wire format inherits the log's corruption detection for free (CRC per
// frame, sequence gaps, bounded payloads) and a captured snapshot is itself
// a valid log file. Unlike Open, DecodeFrames never repairs: a snapshot with
// any invalid byte is refused whole — a migration must be perfect or it must
// not happen.

// EncodeFrames serializes records into a DMFBWAL1 byte stream, renumbering
// sequences from 1 in the given order.
func EncodeFrames(recs []Record) ([]byte, error) {
	buf := make([]byte, 0, 256+64*len(recs))
	buf = append(buf, magic...)
	var err error
	for i := range recs {
		rec := recs[i]
		rec.Seq = uint64(i + 1)
		if buf, err = frame(buf, &rec); err != nil {
			return nil, fmt.Errorf("wal: encode snapshot: %w", err)
		}
	}
	return buf, nil
}

// DecodeFrames parses a DMFBWAL1 byte stream produced by EncodeFrames (or a
// whole log file body). Every structural violation — bad magic, impossible
// length, checksum mismatch, undecodable payload, sequence gap, trailing
// bytes — returns the same typed *CorruptError, wrapping ErrCorrupt, that
// replaying the stream as a log file reports; there is no good-prefix
// salvage on the wire.
func DecodeFrames(data []byte) ([]Record, error) {
	recs, _, corr := decodeFrames(data)
	if corr != nil {
		return nil, corr
	}
	return recs, nil
}
