package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Body size sanity bounds. Decoders cap declared element counts by what
// the body could physically hold (one byte minimum per element), so a
// forged count can never drive a huge allocation from a tiny frame.
const (
	// MaxKeyLen bounds a set key on the wire; the HTTP surface has no
	// explicit key cap, but a multi-megabyte key is an attack, not a key.
	MaxKeyLen = 4096
)

// bodyReader walks a frame body. All take-methods fail with ErrMalformed
// (wrapped with field context) instead of panicking; after the first
// failure every subsequent take returns the zero value.
type bodyReader struct {
	b   []byte
	err error
}

func newBodyReader(b []byte) *bodyReader { return &bodyReader{b: b} }

func (r *bodyReader) fail(field string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: field %s", ErrMalformed, field)
	}
}

// uvarint takes one unsigned varint.
func (r *bodyReader) uvarint(field string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(field)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// str takes one length-prefixed string, bounded by max bytes.
func (r *bodyReader) str(field string, max int) string {
	n := r.uvarint(field)
	if r.err != nil {
		return ""
	}
	if n > uint64(max) || n > uint64(len(r.b)) {
		r.fail(field)
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// bytes takes one length-prefixed byte field, copied out of the body. The
// frame-body cap bounds it.
func (r *bodyReader) bytes(field string) []byte {
	n := r.uvarint(field)
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail(field)
		return nil
	}
	b := append([]byte(nil), r.b[:n]...)
	r.b = r.b[n:]
	return b
}

// ids takes a count-prefixed id list. The count is validated against the
// remaining body length (each id costs at least one byte) before any
// allocation.
func (r *bodyReader) ids(field string) []uint64 {
	n := r.uvarint(field + ".count")
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail(field + ".count")
		return nil
	}
	out := make([]uint64, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.uvarint(field))
		if r.err != nil {
			return nil
		}
	}
	return out
}

// done checks that the body was consumed exactly — trailing bytes are a
// protocol error for the same reason trailing JSON is on the HTTP side.
func (r *bodyReader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.b))
	}
	return nil
}

func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendIDs(dst []byte, ids []uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, id)
	}
	return dst
}

// SampleReq is the body of OpSample and OpSampleStream. Uniform (and the
// deprecated Dynamic) travel as header flags, not body fields. Credit is only meaningful for
// OpSampleStream: the number of samples the server may send before it
// must wait for an OpCredit grant (0 means "no initial credit" — the
// client grants separately).
//
// Between N and Credit the body keeps the slot of a retired worker-count
// hint: Encode writes 0 there and DecodeSampleReq reads and discards
// whatever it holds, so an older client's frames still parse.
type SampleReq struct {
	Key    string
	N      uint64
	Credit uint64
}

// Encode appends the body to dst. The stream form always carries the
// credit field; the buffered form omits it.
func (m SampleReq) Encode(dst []byte, stream bool) []byte {
	dst = appendString(dst, m.Key)
	dst = appendUvarint(dst, m.N)
	dst = appendUvarint(dst, 0) // the retired workers slot
	if stream {
		dst = appendUvarint(dst, m.Credit)
	}
	return dst
}

// DecodeSampleReq parses the body of OpSample/OpSampleStream.
func DecodeSampleReq(body []byte, stream bool) (SampleReq, error) {
	r := newBodyReader(body)
	m := SampleReq{Key: r.str("key", MaxKeyLen), N: r.uvarint("n")}
	r.uvarint("workers") // the retired slot: read and ignored
	if stream {
		m.Credit = r.uvarint("credit")
	}
	return m, r.done()
}

// CreditGrant is the body of OpCredit: N more samples for the stream
// identified by the frame's request id.
type CreditGrant struct{ N uint64 }

func (m CreditGrant) Encode(dst []byte) []byte { return appendUvarint(dst, m.N) }

func DecodeCreditGrant(body []byte) (CreditGrant, error) {
	r := newBodyReader(body)
	m := CreditGrant{N: r.uvarint("credit")}
	return m, r.done()
}

// ReconstructReq is the body of OpReconstruct.
type ReconstructReq struct{ Key string }

func (m ReconstructReq) Encode(dst []byte) []byte { return appendString(dst, m.Key) }

func DecodeReconstructReq(body []byte) (ReconstructReq, error) {
	r := newBodyReader(body)
	m := ReconstructReq{Key: r.str("key", MaxKeyLen)}
	return m, r.done()
}

// IntersectionReq is the body of OpIntersection.
type IntersectionReq struct{ KeyA, KeyB string }

func (m IntersectionReq) Encode(dst []byte) []byte {
	dst = appendString(dst, m.KeyA)
	return appendString(dst, m.KeyB)
}

func DecodeIntersectionReq(body []byte) (IntersectionReq, error) {
	r := newBodyReader(body)
	m := IntersectionReq{KeyA: r.str("key_a", MaxKeyLen), KeyB: r.str("key_b", MaxKeyLen)}
	return m, r.done()
}

// AddSet is one key's pending writes within an AddReq. Dynamic is the kind
// a new key gets (a removable set); it must match an existing key's kind.
type AddSet struct {
	Key     string
	Dynamic bool
	IDs     []uint64
}

// AddReq is the body of OpAdd: a set count, then per set key / dynamic
// byte / id list. A single-key add is simply a one-set batch — unlike
// the JSON API there is no separate single shape, because the encoding
// overhead a second shape would save is two bytes.
type AddReq struct{ Sets []AddSet }

func (m AddReq) Encode(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(len(m.Sets)))
	for _, set := range m.Sets {
		dst = appendString(dst, set.Key)
		d := byte(0)
		if set.Dynamic {
			d = 1
		}
		dst = append(dst, d)
		dst = appendIDs(dst, set.IDs)
	}
	return dst
}

func DecodeAddReq(body []byte) (AddReq, error) {
	r := newBodyReader(body)
	n := r.uvarint("sets.count")
	if r.err == nil && n > uint64(len(r.b)) {
		r.fail("sets.count")
	}
	m := AddReq{}
	if r.err == nil {
		m.Sets = make([]AddSet, 0, n)
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		set := AddSet{Key: r.str("sets.key", MaxKeyLen)}
		if r.err == nil {
			if len(r.b) == 0 {
				r.fail("sets.dynamic")
			} else {
				set.Dynamic = r.b[0] != 0
				r.b = r.b[1:]
			}
		}
		set.IDs = r.ids("sets.ids")
		m.Sets = append(m.Sets, set)
	}
	return m, r.done()
}

// RemoveReq is the body of OpRemove (removable sets only, all-or-nothing).
type RemoveReq struct {
	Key string
	IDs []uint64
}

func (m RemoveReq) Encode(dst []byte) []byte {
	dst = appendString(dst, m.Key)
	return appendIDs(dst, m.IDs)
}

func DecodeRemoveReq(body []byte) (RemoveReq, error) {
	r := newBodyReader(body)
	m := RemoveReq{Key: r.str("key", MaxKeyLen), IDs: r.ids("ids")}
	return m, r.done()
}

// SampleResult is the body of OpSampleResult: the buffered response.
// Returned == len(IDs) on the wire but travels explicitly so a client
// can pre-validate before decoding the id list.
type SampleResult struct {
	Requested uint64
	IDs       []uint64
}

func (m SampleResult) Encode(dst []byte) []byte {
	dst = appendUvarint(dst, m.Requested)
	return appendIDs(dst, m.IDs)
}

func DecodeSampleResult(body []byte) (SampleResult, error) {
	r := newBodyReader(body)
	m := SampleResult{Requested: r.uvarint("requested"), IDs: r.ids("ids")}
	return m, r.done()
}

// SampleChunk is the body of OpSampleChunk: one chunk of a streaming
// response. The final chunk carries FlagFinal (and may be empty).
type SampleChunk struct{ IDs []uint64 }

func (m SampleChunk) Encode(dst []byte) []byte { return appendIDs(dst, m.IDs) }

func DecodeSampleChunk(body []byte) (SampleChunk, error) {
	r := newBodyReader(body)
	m := SampleChunk{IDs: r.ids("ids")}
	return m, r.done()
}

// IDsResult is the body of OpIDsResult (reconstruction).
type IDsResult struct{ IDs []uint64 }

func (m IDsResult) Encode(dst []byte) []byte { return appendIDs(dst, m.IDs) }

func DecodeIDsResult(body []byte) (IDsResult, error) {
	r := newBodyReader(body)
	m := IDsResult{IDs: r.ids("ids")}
	return m, r.done()
}

// EstimateResult is the body of OpEstimateResult. The float64 crosses
// the wire as its IEEE-754 bits in a varint (small payloads for the
// common small estimates would need a fixed 8 bytes anyway; the varint
// keeps the body format uniform).
type EstimateResult struct{ Estimate float64 }

func (m EstimateResult) Encode(dst []byte) []byte {
	return appendUvarint(dst, math.Float64bits(m.Estimate))
}

func DecodeEstimateResult(body []byte) (EstimateResult, error) {
	r := newBodyReader(body)
	m := EstimateResult{Estimate: math.Float64frombits(r.uvarint("estimate"))}
	return m, r.done()
}

// AckResult is the body of OpAckResult: Count ids written/removed across
// Keys keys.
type AckResult struct {
	Count uint64
	Keys  uint64
}

func (m AckResult) Encode(dst []byte) []byte {
	dst = appendUvarint(dst, m.Count)
	return appendUvarint(dst, m.Keys)
}

func DecodeAckResult(body []byte) (AckResult, error) {
	r := newBodyReader(body)
	m := AckResult{Count: r.uvarint("count"), Keys: r.uvarint("keys")}
	return m, r.done()
}

// StatsResult is the body of OpStatsResult: the /v1/stats JSON document,
// length-prefixed. Stats is an operator surface, not a hot path — reusing
// the JSON shape keeps one schema for both protocols, and the binary
// framing still saves the HTTP envelope.
type StatsResult struct{ JSON []byte }

func (m StatsResult) Encode(dst []byte) []byte { return appendBytes(dst, m.JSON) }

func DecodeStatsResult(body []byte) (StatsResult, error) {
	r := newBodyReader(body)
	m := StatsResult{JSON: r.bytes("json.len")}
	return m, r.done()
}

// SnapshotInfoResult is the body of OpSnapshotResult: the snapshot
// descriptor as JSON (the same document POST /v1/snapshot returns),
// length-prefixed like StatsResult — snapshots are an operator surface.
type SnapshotInfoResult struct{ JSON []byte }

func (m SnapshotInfoResult) Encode(dst []byte) []byte { return appendBytes(dst, m.JSON) }

func DecodeSnapshotInfoResult(body []byte) (SnapshotInfoResult, error) {
	r := newBodyReader(body)
	m := SnapshotInfoResult{JSON: r.bytes("json.len")}
	return m, r.done()
}

// RestoreReq is the body of OpRestore: a complete restore bundle
// (setdb.WriteBundleTo bytes), length-prefixed. The frame-body cap
// bounds it — bundles beyond the server's MaxBodyBytes must use the
// HTTP surface, which streams.
type RestoreReq struct{ Data []byte }

func (m RestoreReq) Encode(dst []byte) []byte { return appendBytes(dst, m.Data) }

func DecodeRestoreReq(body []byte) (RestoreReq, error) {
	r := newBodyReader(body)
	m := RestoreReq{Data: r.bytes("data.len")}
	return m, r.done()
}

// ErrorResult is the body of OpError.
type ErrorResult struct {
	Code uint64
	Msg  string
}

func (m ErrorResult) Encode(dst []byte) []byte {
	dst = appendUvarint(dst, m.Code)
	return appendString(dst, m.Msg)
}

func DecodeErrorResult(body []byte) (ErrorResult, error) {
	r := newBodyReader(body)
	m := ErrorResult{Code: r.uvarint("code"), Msg: r.str("msg", 64<<10)}
	return m, r.done()
}

// Error renders an ErrorResult as a client-side error value.
func (m ErrorResult) Error() string { return fmt.Sprintf("wire: server error %d: %s", m.Code, m.Msg) }
