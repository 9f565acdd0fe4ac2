// Package wal is the durability layer under the serving tier: a
// segmented, checksummed write-ahead log plus periodic snapshots over a
// setdb.DB, so a crash mid-ingest loses at most the writes the fsync
// policy allows — never the database.
//
// Log format. A data directory holds numbered segment files and
// snapshot bundles:
//
//	wal-00000007.log    append log segment (records with seq > snapshot seq)
//	snap-00000007.snap  setdb bundle (format: internal/setdb/durability.go)
//	snap-00000007.meta  JSON sidecar: the last sequence number the bundle covers
//
// Each segment starts with an 8-byte magic ("BSTWAL01") followed by
// framed records:
//
//	offset  size  field
//	0       4     payload length (uint32, little-endian)
//	4       4     CRC32-C of the payload (uint32, little-endian)
//	8       n     payload
//
// A payload is one group-commit batch — the unit setdb.ApplyBatch
// replays atomically:
//
//	seq     uvarint   monotone record sequence number
//	writes  uvarint   count, then per write:
//	  flags  byte     bit0 dynamic, bit1 remove
//	  key    uvarint length + bytes
//	  ids    uvarint count + uvarint ids
//
// The sequence number is what makes replay idempotent for the
// non-idempotent counting backend (an add increments counters):
// recovery skips every record at or below the snapshot's covered seq,
// so replaying a segment twice — or a segment the snapshot already
// absorbed — applies nothing twice.
//
// A snapshot pins the database and rotates to segment N under the one
// mutex every Apply holds, so snap-N holds exactly the records of the
// segments below N, and recovery replays from segment N on. Its .meta only
// carries the covered seq across a reboot: a .meta lost in a crash would
// boot at seq 0 and still apply no record twice, but Stats().Seq and
// LastSnapshotSeq would read 0. The .meta is written first all the same.
//
// Every create and every rename in the directory is followed by a sync of
// the directory before anything that depends on it is acknowledged:
// snapshot files go through durable.WriteFile (temp file, fsync, rename,
// directory fsync), and a new segment's name is synced before its first
// record is. TestEveryCrashState boots every state a crash could leave of
// one scenario under that rule.
//
// A torn tail (the crash happened mid-append) fails the CRC or the
// length prefix and is dropped cleanly: recovery keeps everything up to
// the last intact record and truncates the rest before appending again.
// Corruption anywhere but the final segment's tail is refused — that is
// damaged history, not an interrupted write.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/setdb"
)

const (
	segMagic = "BSTWAL01"
	// recHeaderSize is the framed-record prefix: length + CRC32-C.
	recHeaderSize = 8
	// maxRecordBytes bounds a declared payload length during decode, so
	// a corrupt length prefix can never drive a giant allocation.
	maxRecordBytes = 256 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record flags.
const (
	flagDynamic byte = 1 << 0
	flagRemove  byte = 1 << 1
)

// ErrCorrupt marks a record that decodes wrong for reasons beyond a torn
// tail: CRC mismatch, impossible lengths, trailing payload bytes.
var ErrCorrupt = errors.New("wal: corrupt record")

// errShortRecord marks a buffer that ends mid-record — the torn-tail
// shape a crash during append leaves behind.
var errShortRecord = errors.New("wal: short record")

// appendRecord frames one group-commit batch onto dst.
func appendRecord(dst []byte, seq uint64, writes []setdb.Write) []byte {
	base := len(dst)
	dst = append(dst, make([]byte, recHeaderSize)...)
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(writes)))
	for i := range writes {
		w := &writes[i]
		var flags byte
		if w.Dynamic {
			flags |= flagDynamic
		}
		if w.Remove {
			flags |= flagRemove
		}
		dst = append(dst, flags)
		dst = binary.AppendUvarint(dst, uint64(len(w.Key)))
		dst = append(dst, w.Key...)
		dst = binary.AppendUvarint(dst, uint64(len(w.IDs)))
		for _, id := range w.IDs {
			dst = binary.AppendUvarint(dst, id)
		}
	}
	payload := dst[base+recHeaderSize:]
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[base+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// decodeFrame parses one framed record from the head of b. It returns
// the bytes consumed; errShortRecord (with consumed 0) when b ends
// mid-frame, ErrCorrupt when the frame is structurally wrong or fails
// its checksum. It never panics on hostile input (FuzzWALDecode pins
// that).
func decodeFrame(b []byte) (seq uint64, writes []setdb.Write, consumed int, err error) {
	if len(b) < recHeaderSize {
		return 0, nil, 0, errShortRecord
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n == 0 || n > maxRecordBytes {
		return 0, nil, 0, fmt.Errorf("%w: payload length %d", ErrCorrupt, n)
	}
	if uint64(len(b)-recHeaderSize) < uint64(n) {
		return 0, nil, 0, errShortRecord
	}
	payload := b[recHeaderSize : recHeaderSize+int(n)]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(b[4:8]); got != want {
		return 0, nil, 0, fmt.Errorf("%w: checksum %08x, want %08x", ErrCorrupt, got, want)
	}
	seq, writes, err = decodePayload(payload)
	if err != nil {
		return 0, nil, 0, err
	}
	return seq, writes, recHeaderSize + int(n), nil
}

// decodePayload parses the checksummed interior of one record. Element
// counts are validated against the remaining bytes (each element costs
// at least one byte) before any allocation.
func decodePayload(p []byte) (uint64, []setdb.Write, error) {
	seq, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: seq", ErrCorrupt)
	}
	p = p[n:]
	count, n := binary.Uvarint(p)
	if n <= 0 || count > uint64(len(p)) {
		return 0, nil, fmt.Errorf("%w: write count", ErrCorrupt)
	}
	p = p[n:]
	writes := make([]setdb.Write, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(p) == 0 {
			return 0, nil, fmt.Errorf("%w: write %d flags", ErrCorrupt, i)
		}
		flags := p[0]
		p = p[1:]
		klen, n := binary.Uvarint(p)
		if n <= 0 || klen > setdb.MaxKeyLen || klen > uint64(len(p)-n) {
			return 0, nil, fmt.Errorf("%w: write %d key length", ErrCorrupt, i)
		}
		p = p[n:]
		key := string(p[:klen])
		p = p[klen:]
		nids, n := binary.Uvarint(p)
		if n <= 0 || nids > uint64(len(p)) {
			return 0, nil, fmt.Errorf("%w: write %d id count", ErrCorrupt, i)
		}
		p = p[n:]
		var ids []uint64
		if nids > 0 {
			ids = make([]uint64, 0, nids)
			for j := uint64(0); j < nids; j++ {
				id, n := binary.Uvarint(p)
				if n <= 0 {
					return 0, nil, fmt.Errorf("%w: write %d id %d", ErrCorrupt, i, j)
				}
				p = p[n:]
				ids = append(ids, id)
			}
		}
		writes = append(writes, setdb.Write{
			Key:     key,
			IDs:     ids,
			Dynamic: flags&flagDynamic != 0,
			Remove:  flags&flagRemove != 0,
		})
	}
	if len(p) != 0 {
		return 0, nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(p))
	}
	return seq, writes, nil
}

// segScan walks the framed records of one segment body (the bytes after
// the magic), calling fn per record. It returns the offset of the first
// byte past the last intact record (relative to the body) and the error
// that stopped the scan: nil for a clean end, errShortRecord/ErrCorrupt
// for a damaged tail. An error from fn aborts the scan and is returned
// as-is.
func segScan(body []byte, fn func(seq uint64, writes []setdb.Write) error) (int, error) {
	off := 0
	for off < len(body) {
		seq, writes, consumed, err := decodeFrame(body[off:])
		if err != nil {
			return off, err
		}
		if err := fn(seq, writes); err != nil {
			return off, err
		}
		off += consumed
	}
	return off, nil
}
