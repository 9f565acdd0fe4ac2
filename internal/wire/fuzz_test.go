package wire

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzDecodeFrame throws arbitrary bytes at the full decode surface:
// frame framing first, then — when a frame parses — the body decoder of
// whatever opcode the fuzzer forged. The properties under test are
// "never panic" and "never allocate proportionally to a forged count";
// both reads and decodes must fail cleanly on anything malformed.
func FuzzDecodeFrame(f *testing.F) {
	// Seed corpus: one valid frame per opcode family, plus classic
	// corruption shapes, so coverage starts inside the decoders instead
	// of dying at the header check.
	f.Add(AppendFrame(nil, OpSample, 0, 1, appendUvarint(appendUvarint(appendString(nil, "k"), 10), 2))) // key, n, a non-zero retired workers slot
	f.Add(AppendFrame(nil, OpSampleStream, FlagUniform, 2, SampleReq{Key: "k", N: 10, Credit: 4}.Encode(nil, true)))
	f.Add(AppendFrame(nil, OpCredit, 0, 2, CreditGrant{N: 64}.Encode(nil)))
	f.Add(AppendFrame(nil, OpAdd, 0, 3, AddReq{Sets: []AddSet{{Key: "a", IDs: []uint64{1, 2, 3}}, {Key: "b", Dynamic: true}}}.Encode(nil)))
	f.Add(AppendFrame(nil, OpRemove, 0, 4, RemoveReq{Key: "d", IDs: []uint64{9}}.Encode(nil)))
	f.Add(AppendFrame(nil, OpReconstruct, FlagDynamic, 5, ReconstructReq{Key: "d"}.Encode(nil)))
	f.Add(AppendFrame(nil, OpIntersection, 0, 6, IntersectionReq{KeyA: "a", KeyB: "b"}.Encode(nil)))
	f.Add(AppendFrame(nil, OpAckResult, 0, 7, AckResult{Count: 3, Keys: 1}.Encode(nil)))
	f.Add(AppendFrame(nil, OpSampleResult, 0, 8, SampleResult{Requested: 3, IDs: []uint64{1, 2, 3}}.Encode(nil)))
	f.Add(AppendFrame(nil, OpSampleChunk, FlagFinal, 8, SampleChunk{IDs: []uint64{5}}.Encode(nil)))
	f.Add(AppendFrame(nil, OpError, 0, 9, ErrorResult{Code: ErrCodeNotFound, Msg: "x"}.Encode(nil)))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 1, 0, 0, 0, 0, 0, 0}) // huge declared length
	f.Add(make([]byte, HeaderSize))                               // all-zero header (version 0)

	f.Fuzz(func(t *testing.T, data []byte) {
		h, body, err := ReadFrame(bytes.NewReader(data), 1<<16)
		if err != nil {
			return
		}
		if int(h.Length) != len(body) {
			t.Fatalf("header length %d but %d body bytes", h.Length, len(body))
		}
		// Decode the body as whatever the opcode claims it is. Errors are
		// expected on fuzzed input — panics and runaway allocations are
		// the failures, and those the fuzzer catches natively.
		switch h.Opcode {
		case OpSample:
			_, _ = DecodeSampleReq(body, false)
		case OpSampleStream:
			_, _ = DecodeSampleReq(body, true)
		case OpCredit:
			_, _ = DecodeCreditGrant(body)
		case OpReconstruct:
			_, _ = DecodeReconstructReq(body)
		case OpIntersection:
			_, _ = DecodeIntersectionReq(body)
		case OpAdd:
			_, _ = DecodeAddReq(body)
		case OpRemove:
			_, _ = DecodeRemoveReq(body)
		case OpSampleResult:
			_, _ = DecodeSampleResult(body)
		case OpSampleChunk:
			_, _ = DecodeSampleChunk(body)
		case OpIDsResult:
			_, _ = DecodeIDsResult(body)
		case OpEstimateResult:
			_, _ = DecodeEstimateResult(body)
		case OpAckResult:
			_, _ = DecodeAckResult(body)
		case OpError:
			_, _ = DecodeErrorResult(body)
		}
	})
}

// FuzzDecodeIDs holds the id-list decoder under every message that carries
// ids to a loop of binary.Uvarint: over any bytes and any count, both
// accept or both refuse, with the same ids and the same bytes left over;
// and a count-prefixed list decodes as a SampleChunk exactly when the loop
// takes it whole.
func FuzzDecodeIDs(f *testing.F) {
	f.Add([]byte{0x7f, 0x80, 0x01, 0xff, 0xff, 0x7f}, uint16(3))
	f.Add([]byte{0x80, 0x00, 0x80, 0x80, 0x80, 0x01}, uint16(2))
	f.Add(append(bytes.Repeat([]byte{0xff}, 9), 0x01, 0x05), uint16(2))
	f.Add(append(bytes.Repeat([]byte{0xff}, 9), 0x02), uint16(1))
	f.Add(append(bytes.Repeat([]byte{0x80}, 10), 0x00), uint16(1))
	f.Add([]byte{0x05, 0x80}, uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, count uint16) {
		n := min(int(count), len(data)+1)
		out := make([]uint64, n)
		rest, ok := decodeIDs(data, out)
		want, wantRest, wantOK := refDecodeIDs(data, n)
		if ok != wantOK {
			t.Fatalf("%d ids of %x: accepted %v, binary.Uvarint %v", n, data, ok, wantOK)
		}
		if ok && (!slices.Equal(out, want) || !bytes.Equal(rest, wantRest)) {
			t.Fatalf("%d ids of %x: %v rest %x, binary.Uvarint %v rest %x", n, data, out, rest, want, wantRest)
		}
		m, err := DecodeSampleChunk(append(appendUvarint(nil, uint64(n)), data...))
		if whole := wantOK && len(wantRest) == 0; whole != (err == nil) {
			t.Fatalf("SampleChunk of %d ids of %x: err %v, loop takes it whole: %v", n, data, err, whole)
		}
		if err == nil && !slices.Equal(m.IDs, want) {
			t.Fatalf("SampleChunk of %x: %v, want %v", data, m.IDs, want)
		}
	})
}
