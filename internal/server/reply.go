package server

// The reply buffer: every byte either codec sends is appended into one
// pooled buffer and leaves in one Write — a JSON document behind its
// Content-Length, a chunk of NDJSON lines, a wire frame packed in place
// behind its header — except a reconstruction's ids, which are rendered once
// per table of positives and kept beside it (rendering): an HTTP
// reconstruction is its head from the buffer, then the table's kept bytes as
// they are, behind one Content-Length. The JSON documents that carry ids and
// the NDJSON lines are appended by hand: every id by strconv.AppendUint,
// alone on an NDJSON line or in an array by appendIDs, which writes a sample
// reply's ids and a table's first rendering alike. Everything else that is
// JSON — stats, acks, errors — goes through encoding/json into the same
// buffer. The hand-written bytes are encoding/json's, which
// TestReplyJSONIsEncodingJSON and FuzzReplyJSON hold them to.

import (
	"encoding/json"
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
		ids := r.ids()
		if ids == nil {
			ids = []uint64{} // no ids are [], not appendIDs' null
		}
		r.json = keep(func(dst []byte) []byte { return append(appendIDs(dst, ids), "}\n"...) })
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
		rb.b = strconv.AppendUint(rb.b, id, 10)
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
		dst = strconv.AppendUint(dst, id, 10)
	}
	return append(dst, ']')
}
