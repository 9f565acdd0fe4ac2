package server

// The reply buffer: every byte either codec sends is appended into one
// pooled buffer and leaves in one Write — a JSON document behind its
// Content-Length, a chunk of NDJSON lines, a wire frame packed in place
// behind its header — except a reconstruction's ids, which are rendered once
// per table of positives and kept beside it (rendering): an HTTP
// reconstruction is its head from the buffer, then the table's kept bytes as
// they are, behind one Content-Length. The JSON documents that carry ids and
// the NDJSON lines are appended by hand: a sample's ids, random draws, each
// written once by appendUint; a reconstruction's, which ascend, from the high
// digits they share with their neighbours (appendAscendingIDs). Everything
// else that is JSON — stats, acks, errors — goes through encoding/json into
// the same buffer. The hand-written bytes are encoding/json's, which
// TestReplyJSONIsEncodingJSON and FuzzReplyJSON hold them to.

import (
	"encoding/binary"
	"encoding/json"
	"math/bits"
	"slices"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/wire"
)

// maxPooledReply is what the pool keeps: a reply buffer grown past it is
// dropped when it is released, so one outsized reply does not stay resident
// for good.
const maxPooledReply = 1 << 20

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

// rendering is a table of positives as the replies carry it: the end of the
// JSON document, from its ids array on, and the wire frame's body, each
// rendered by the first request that needs it and written as it is by every
// later one. It hangs in the table's derived slot (renderingOf), so it lives
// exactly as long as the table: a table that the tree's growth drops takes
// its rendering with it, and a declined version, whose table is new on every
// call, renders on every call. The JSON takes at most 21 B an id (≈ 7 below
// 10⁶), the wire body at most 10, and a table over the reconstruction cap is
// refused before it is rendered.
type rendering struct {
	ids                func() []uint64 // the table's ids, read once for each body
	jsonOnce, wireOnce sync.Once
	json, wire         []byte
}

// renderingOf returns the rendering kept beside p, attaching one on first
// use; of concurrent first callers all get the same.
func renderingOf(p *core.Positives) *rendering {
	if r, ok := p.Derived().(*rendering); ok {
		return r
	}
	fresh := &rendering{ids: func() []uint64 { return p.AppendAll(nil) }}
	if r, ok := p.AttachDerived(fresh).(*rendering); ok {
		return r
	}
	return fresh // the slot holds something else: render for this request alone
}

// jsonTail returns the end of the reconstruction document: the ids as an
// array — [] when there are none — and the } and newline that close it.
func (r *rendering) jsonTail() []byte {
	r.jsonOnce.Do(func() {
		r.json = keep(func(dst []byte) []byte { return append(appendAscendingIDs(dst, r.ids()), "}\n"...) })
	})
	return r.json
}

// wireBody returns the body of the reconstruction's OpIDsResult frame.
func (r *rendering) wireBody() []byte {
	r.wireOnce.Do(func() {
		r.wire = keep(func(dst []byte) []byte { return wire.IDsResult{IDs: r.ids()}.Encode(dst) })
	})
	return r.wire
}

// keep renders a body into a pooled reply buffer and returns a copy of it at
// its size: what stays beside a table is the body, not the buffer it grew in.
func keep(render func(dst []byte) []byte) []byte {
	rb := newReply()
	rb.b = render(rb.b)
	kept := slices.Clone(rb.b)
	rb.release()
	return kept
}

// appendJSON appends v as encoding/json's Encoder writes it, trailing newline
// included — all of it but tail, which a reconstruction's document ends with:
// the rendering kept beside its table, which nothing may write to. tail is nil
// for every other reply.
func (rb *replyBuf) appendJSON(v any) (tail []byte, err error) {
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
		return nil, nil
	case reconstruction:
		rb.b = append(rb.b, `{"key":`...)
		rb.b = appendString(rb.b, v.key)
		rb.b = append(rb.b, `,"count":`...)
		rb.b = strconv.AppendInt(rb.b, int64(v.count), 10)
		rb.b = append(rb.b, `,"ids":`...)
		return v.kept.jsonTail(), nil
	}
	return nil, json.NewEncoder(rb).Encode(v)
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

// appendAscendingIDs appends ids as appendIDs does a non-nil slice, byte for
// byte — [] when there are none — in any order, and is fast when neighbours
// share their high digits, as a reconstruction's ascending ids do (≈ 90
// apart at the planned sizes, so some 110 in a row agree on all but the last
// four). An id v in [10⁴, 10¹¹) is its head, h = v / 10⁴, and a four-digit
// tail. The separator and h's digits — eight bytes at most — are kept as one
// little-endian word and rendered again only when h changes; an id in
// [base, base + 10⁴), where base = 10⁴h, writes that word and its tail, two
// lookups in tailPairs, as one 8-byte and one 4-byte store. Any other id is
// appendUint's.
func appendAscendingIDs(dst []byte, ids []uint64) []byte {
	if len(ids) == 0 {
		return append(dst, "[]"...)
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
