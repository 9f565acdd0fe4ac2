package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// TestFrameRoundTrip carries a sample-stream body whose retired workers slot
// holds 4, as an older client writes it, built byte by byte: it decodes, the
// slot is ignored, and Encode writes the same layout with the slot at 0.
func TestFrameRoundTrip(t *testing.T) {
	rawBody := func(workers uint64) []byte {
		b := binary.AppendUvarint(nil, uint64(len("plain")))
		b = append(b, "plain"...)
		b = binary.AppendUvarint(b, 100)     // n
		b = binary.AppendUvarint(b, workers) // the retired workers slot
		return binary.AppendUvarint(b, 8)    // credit
	}
	body := rawBody(4)
	if enc := (SampleReq{Key: "plain", N: 100, Credit: 8}).Encode(nil, true); !bytes.Equal(enc, rawBody(0)) {
		t.Fatalf("Encode wrote % x, want % x", enc, rawBody(0))
	}
	frame := AppendFrame(nil, OpSampleStream, FlagDynamic, 7, body)
	h, got, err := ReadFrame(bytes.NewReader(frame), 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Opcode != OpSampleStream || h.Flags != FlagDynamic || h.RequestID != 7 || h.Version != Version {
		t.Fatalf("header mismatch: %+v", h)
	}
	if int(h.Length) != len(body) || !bytes.Equal(got, body) {
		t.Fatalf("body mismatch: %d bytes, want %d", len(got), len(body))
	}
	m, err := DecodeSampleReq(got, true)
	if err != nil {
		t.Fatal(err)
	}
	if m != (SampleReq{Key: "plain", N: 100, Credit: 8}) {
		t.Fatalf("message mismatch: %+v", m)
	}
}

func TestEmptyBodyFrame(t *testing.T) {
	frame := AppendFrame(nil, OpBusy, 0, 3, nil)
	h, body, err := ReadFrame(bytes.NewReader(frame), 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Opcode != OpBusy || len(body) != 0 {
		t.Fatalf("got opcode %d, %d body bytes", h.Opcode, len(body))
	}
}

// TestReadFrameErrors is the table of hostile frame prefixes: every one
// must come back as a clean protocol error, never a panic or a hang.
func TestReadFrameErrors(t *testing.T) {
	valid := AppendFrame(nil, OpSample, 0, 1, []byte{1, 2, 3})
	oversized := AppendFrame(nil, OpSample, 0, 1, make([]byte, 100))
	wrongVersion := append([]byte(nil), valid...)
	wrongVersion[4] = Version + 1
	reserved := append([]byte(nil), valid...)
	reserved[7] = 0xFF
	cases := []struct {
		name    string
		data    []byte
		maxBody int
		want    error
	}{
		{"empty input", nil, 0, io.EOF},
		{"truncated header", valid[:5], 0, ErrTruncated},
		{"truncated body", valid[:HeaderSize+1], 0, ErrTruncated},
		{"oversized body", oversized, 10, ErrFrameTooLarge},
		{"version mismatch", wrongVersion, 0, ErrVersion},
		{"reserved byte set", reserved, 0, ErrReserved},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadFrame(bytes.NewReader(tc.data), tc.maxBody)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestDecodeBodyErrors is the table of hostile bodies per message type:
// truncated varints, forged counts larger than the body, oversized
// strings, and trailing garbage all fail with ErrMalformed.
func TestDecodeBodyErrors(t *testing.T) {
	goodSample := SampleReq{Key: "k", N: 5}.Encode(nil, false)
	cases := []struct {
		name   string
		decode func([]byte) error
		body   []byte
	}{
		{"sample: empty", func(b []byte) error { _, err := DecodeSampleReq(b, false); return err }, nil},
		{"sample: truncated", func(b []byte) error { _, err := DecodeSampleReq(b, false); return err }, goodSample[:2]},
		{"sample: trailing bytes", func(b []byte) error { _, err := DecodeSampleReq(b, false); return err }, append(append([]byte(nil), goodSample...), 0)},
		{"sample: key too long", func(b []byte) error { _, err := DecodeSampleReq(b, false); return err },
			SampleReq{Key: string(make([]byte, MaxKeyLen+1)), N: 1}.Encode(nil, false)},
		{"sample: missing credit", func(b []byte) error { _, err := DecodeSampleReq(b, true); return err }, goodSample},
		{"credit: empty", func(b []byte) error { _, err := DecodeCreditGrant(b); return err }, nil},
		{"add: forged set count", func(b []byte) error { _, err := DecodeAddReq(b); return err }, []byte{0xFF, 0xFF, 0x01}},
		{"add: missing dynamic byte", func(b []byte) error { _, err := DecodeAddReq(b); return err }, []byte{1, 1, 'k'}},
		{"remove: forged id count", func(b []byte) error { _, err := DecodeRemoveReq(b); return err }, []byte{1, 'k', 0xF0}},
		{"ids result: forged count", func(b []byte) error { _, err := DecodeIDsResult(b); return err }, []byte{0xFF, 0xFF, 0xFF, 0x7F}},
		{"error: forged msg length", func(b []byte) error { _, err := DecodeErrorResult(b); return err }, []byte{1, 0x05, 'x'}},
		{"error: oversized msg", func(b []byte) error { _, err := DecodeErrorResult(b); return err }, []byte{1, 0xFF, 0xFF, 0x7F}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.decode(tc.body)
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("got %v, want ErrMalformed", err)
			}
		})
	}
}

func TestMessageRoundTrips(t *testing.T) {
	ids := []uint64{0, 1, 7, 1 << 40, math.MaxUint64}
	t.Run("add", func(t *testing.T) {
		in := AddReq{Sets: []AddSet{
			{Key: "a", IDs: ids},
			{Key: "b", Dynamic: true, IDs: nil},
		}}
		out, err := DecodeAddReq(in.Encode(nil))
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Sets) != 2 || out.Sets[0].Key != "a" || !out.Sets[1].Dynamic {
			t.Fatalf("mismatch: %+v", out)
		}
		if !reflect.DeepEqual(out.Sets[0].IDs, ids) {
			t.Fatalf("ids mismatch: %v", out.Sets[0].IDs)
		}
	})
	t.Run("remove", func(t *testing.T) {
		out, err := DecodeRemoveReq(RemoveReq{Key: "k", IDs: ids}.Encode(nil))
		if err != nil {
			t.Fatal(err)
		}
		if out.Key != "k" || !reflect.DeepEqual(out.IDs, ids) {
			t.Fatalf("mismatch: %+v", out)
		}
	})
	t.Run("sample result", func(t *testing.T) {
		out, err := DecodeSampleResult(SampleResult{Requested: 9, IDs: ids}.Encode(nil))
		if err != nil {
			t.Fatal(err)
		}
		if out.Requested != 9 || !reflect.DeepEqual(out.IDs, ids) {
			t.Fatalf("mismatch: %+v", out)
		}
	})
	t.Run("estimate", func(t *testing.T) {
		for _, v := range []float64{0, 1.5, -3.25, math.Inf(1), 12345.678} {
			out, err := DecodeEstimateResult(EstimateResult{Estimate: v}.Encode(nil))
			if err != nil {
				t.Fatal(err)
			}
			if out.Estimate != v {
				t.Fatalf("got %v, want %v", out.Estimate, v)
			}
		}
	})
	t.Run("intersection", func(t *testing.T) {
		out, err := DecodeIntersectionReq(IntersectionReq{KeyA: "x", KeyB: "y"}.Encode(nil))
		if err != nil {
			t.Fatal(err)
		}
		if out.KeyA != "x" || out.KeyB != "y" {
			t.Fatalf("mismatch: %+v", out)
		}
	})
	t.Run("error", func(t *testing.T) {
		out, err := DecodeErrorResult(ErrorResult{Code: ErrCodeNotFound, Msg: "no set"}.Encode(nil))
		if err != nil {
			t.Fatal(err)
		}
		if out.Code != ErrCodeNotFound || out.Msg != "no set" {
			t.Fatalf("mismatch: %+v", out)
		}
	})
}

// TestForgedCountNoHugeAlloc pins the allocation guard: a tiny frame
// declaring 2^60 ids must fail fast instead of attempting the make().
func TestForgedCountNoHugeAlloc(t *testing.T) {
	var body []byte
	body = appendUvarint(body, 1<<60)
	if _, err := DecodeSampleChunk(body); !errors.Is(err, ErrMalformed) {
		t.Fatalf("got %v, want ErrMalformed", err)
	}
}
