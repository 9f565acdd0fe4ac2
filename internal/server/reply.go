package server

// The reply buffer: every byte either codec sends is appended into one
// pooled buffer and leaves in one Write — a JSON document behind its
// Content-Length, a chunk of NDJSON lines, a wire frame packed in place
// behind its header. The two JSON documents that carry ids
// (SampleResponse, ReconstructResponse) and the NDJSON lines are appended by
// hand: a sample's ids, random draws, each written once by appendUint; a
// reconstruction's, which ascend, from the high digits they share with their
// neighbours (appendAscendingIDs). Everything else that is JSON — stats,
// acks, errors — goes through encoding/json into the same buffer. The
// hand-written bytes are encoding/json's, which TestReplyJSONIsEncodingJSON
// and FuzzReplyJSON hold them to.

import (
	"encoding/binary"
	"encoding/json"
	"math/bits"
	"slices"
	"strconv"
	"sync"
)

// What a pool keeps: a reply buffer grown past maxPooledReply bytes, or a
// reconstruction result past the default batch cap, is dropped when it is
// released, so one outsized reply does not stay resident for good.
const (
	maxPooledReply = 1 << 20
	maxPooledIDs   = DefaultMaxBatch
)

// replyBuf is one reply's bytes. It is an io.Writer so that encoding/json
// can encode into it.
type replyBuf struct{ b []byte }

var replyBufs = sync.Pool{New: func() any { return new(replyBuf) }}

func newReply() *replyBuf { return replyBufs.Get().(*replyBuf) }

// release hands the buffer back once the reply is written; nothing may read
// rb.b afterwards.
func (rb *replyBuf) release() {
	if cap(rb.b) > maxPooledReply {
		return
	}
	rb.b = rb.b[:0]
	replyBufs.Put(rb)
}

func (rb *replyBuf) Write(p []byte) (int, error) {
	rb.b = append(rb.b, p...)
	return len(p), nil
}

// idBuf is a reconstruction's result, kept between requests: the ≈ 100 KB
// of ids a reply is encoded from outlive it only as capacity.
type idBuf struct{ ids []uint64 }

var idBufs = sync.Pool{New: func() any { return new(idBuf) }}

func newIDs() *idBuf { return idBufs.Get().(*idBuf) }

// release hands the slice back once the reply that was encoded from it is
// written.
func (ib *idBuf) release() {
	if cap(ib.ids) > maxPooledIDs {
		return
	}
	ib.ids = ib.ids[:0]
	idBufs.Put(ib)
}

// appendJSON appends v as encoding/json's Encoder writes it, trailing newline
// included.
func (rb *replyBuf) appendJSON(v any) error {
	switch v := v.(type) {
	case SampleResponse:
		rb.b = append(rb.b, `{"key":`...)
		rb.b = appendString(rb.b, v.Key)
		rb.b = append(rb.b, `,"requested":`...)
		rb.b = strconv.AppendInt(rb.b, int64(v.Requested), 10)
		rb.b = append(rb.b, `,"returned":`...)
		rb.b = strconv.AppendInt(rb.b, int64(v.Returned), 10)
		rb.b = append(rb.b, `,"ids":`...)
		rb.b = appendIDs(rb.b, v.IDs)
		rb.b = append(rb.b, "}\n"...)
		return nil
	case ReconstructResponse:
		rb.b = append(rb.b, `{"key":`...)
		rb.b = appendString(rb.b, v.Key)
		rb.b = append(rb.b, `,"count":`...)
		rb.b = strconv.AppendInt(rb.b, int64(v.Count), 10)
		rb.b = append(rb.b, `,"ids":`...)
		rb.b = appendAscendingIDs(rb.b, v.IDs)
		rb.b = append(rb.b, "}\n"...)
		return nil
	}
	return json.NewEncoder(rb).Encode(v)
}

// The NDJSON lines of a streamed sample: {"id":N} for every id of a chunk
// (an id of 0 included), {"done":true} after the last, {"error":"…"} in
// place of it.
func (rb *replyBuf) appendIDLines(ids []uint64) {
	for _, id := range ids {
		rb.b = append(rb.b, `{"id":`...)
		rb.b = appendUint(rb.b, id)
		rb.b = append(rb.b, "}\n"...)
	}
}

func (rb *replyBuf) appendDoneLine() { rb.b = append(rb.b, "{\"done\":true}\n"...) }

func (rb *replyBuf) appendErrorLine(msg string) {
	rb.b = append(rb.b, `{"error":`...)
	rb.b = appendString(rb.b, msg)
	rb.b = append(rb.b, "}\n"...)
}

// appendString appends s as a JSON string. Printable ASCII with nothing
// encoding/json escapes is copied between quotes; any other string is
// encoding/json's to encode, so the bytes are its bytes by construction.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string cannot fail to marshal
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendIDs appends ids as a JSON array: null for a nil slice, as
// encoding/json has it.
func appendIDs(dst []byte, ids []uint64) []byte {
	if ids == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendUint(dst, id)
	}
	return append(dst, ']')
}

// appendAscendingIDs appends ids as appendIDs does, byte for byte, in any
// order, and is fast when neighbours share their high digits, as a
// reconstruction's ascending ids do (≈ 90 apart at the planned sizes, so
// some 110 in a row agree on all but the last four). An id v in [10⁴, 10¹¹)
// is its head, h = v / 10⁴, and a four-digit tail. The separator and h's
// digits — eight bytes at most — are kept as one little-endian word and
// rendered again only when h changes; an id in [base, base + 10⁴), where
// base = 10⁴h, writes that word and its tail, two lookups in tailPairs, as
// one 8-byte and one 4-byte store. Any other id is appendUint's.
func appendAscendingIDs(dst []byte, ids []uint64) []byte {
	if len(ids) == 0 {
		return appendIDs(dst, ids)
	}
	dst = appendUint(append(dst, '['), ids[0])
	// Start from the head of h = 1: a real one, so the span test needs no
	// case for "no head yet".
	base, head, headLen := uint64(1e4), uint64(',')|'1'<<8, 2
	for _, v := range ids[1:] {
		r := v - base
		if r >= 1e4 {
			if v < 1e4 || v >= 1e11 {
				dst = appendUint(append(dst, ','), v)
				continue
			}
			h := v / 1e4
			base, r = h*1e4, v%1e4
			var b [8]byte
			headLen = len(appendUint(append(b[:0], ','), h))
			head = binary.LittleEndian.Uint64(b[:])
		}
		i := len(dst)
		dst = slices.Grow(dst, 12)[:i+12]
		binary.LittleEndian.PutUint64(dst[i:], head)
		i += headLen
		binary.LittleEndian.PutUint32(dst[i:], uint32(tailPairs[r/100])|uint32(tailPairs[r%100])<<16)
		dst = dst[:i+4]
	}
	return append(dst, ']')
}

// tailPairs is digitPairs as little-endian words: 00 to 99, two bytes each.
var tailPairs = func() (t [100]uint16) {
	for i := range t {
		t[i] = uint16(digitPairs[2*i]) | uint16(digitPairs[2*i+1])<<8
	}
	return t
}()

// appendUint appends v in decimal: the number is sized first and its digits
// stored straight into dst, two at a time from the right, so an id is written
// once — strconv formats into a temporary and copies it.
func appendUint(dst []byte, v uint64) []byte {
	// ⌊log₁₀⌋ is one of two neighbours given the bit length (1233/4096 ≈
	// log₁₀ 2); the table says which. v|1 has v's digits and spares 0 a case.
	n := bits.Len64(v|1) * 1233 >> 12
	if v|1 >= pow10[n] {
		n++
	}
	i := len(dst) + n
	dst = slices.Grow(dst, n)[:i]
	for v >= 100 {
		q := v / 100
		r := 2 * (v - 100*q)
		i -= 2
		dst[i], dst[i+1] = digitPairs[r], digitPairs[r+1]
		v = q
	}
	if v >= 10 {
		dst[i-2], dst[i-1] = digitPairs[2*v], digitPairs[2*v+1]
	} else {
		dst[i-1] = '0' + byte(v)
	}
	return dst
}

var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"
