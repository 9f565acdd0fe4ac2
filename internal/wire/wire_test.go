package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
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

// BenchmarkDecodeAddReq decodes one add of the point_http set-up's shape:
// 50 sets of 1 000 distinct ids below 10⁵ (most take three varint bytes).
// An op is one body; run it at -cpu 1.
func BenchmarkDecodeAddReq(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	req := AddReq{Sets: make([]AddSet, 50)}
	for i := range req.Sets {
		ids := make([]uint64, 1_000)
		for j := range ids {
			ids[j] = uint64(rng.Int63n(100_000))
		}
		req.Sets[i] = AddSet{Key: "k" + strconv.Itoa(i), IDs: ids}
	}
	body := req.Encode(nil)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeAddReq(body); err != nil {
			b.Fatal(err)
		}
	}
}

// refDecodeIDs is the id-list decoder decodeIDs must match: n calls of
// binary.Uvarint.
func refDecodeIDs(b []byte, n int) ([]uint64, []byte, bool) {
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		v, k := binary.Uvarint(b)
		if k <= 0 {
			return nil, nil, false
		}
		out, b = append(out, v), b[k:]
	}
	return out, b, true
}

// TestDecodeIDsBoundaries is the table of varints at the edges of the
// inline decoder and of binary.Uvarint: each is decoded last in its list
// (fewer than three bytes in hand after it, so the fallback may take it)
// and ahead of more ids (where the inline path takes the short ones), and
// each must decode to the same value, or be refused, both ways and as a
// one-id SampleChunk.
func TestDecodeIDsBoundaries(t *testing.T) {
	ff := func(n int) []byte { return bytes.Repeat([]byte{0xff}, n) }
	cases := []struct {
		name string
		enc  []byte
		want uint64
		ok   bool
	}{
		{"0x7f", []byte{0x7f}, 0x7f, true},
		{"80 01", []byte{0x80, 0x01}, 0x80, true},
		{"2^21-1", []byte{0xff, 0xff, 0x7f}, 1<<21 - 1, true},
		{"four bytes", []byte{0x80, 0x80, 0x80, 0x01}, 1 << 21, true},
		{"2^64-1 in ten bytes", append(ff(9), 0x01), math.MaxUint64, true},
		{"an 11th byte", append(bytes.Repeat([]byte{0x80}, 10), 0x00), 0, false},
		{"a 10th byte above 1", append(ff(9), 0x02), 0, false},
		{"non-canonical 80 00", []byte{0x80, 0x00}, 0, true},
		{"non-canonical 80 80 00", []byte{0x80, 0x80, 0x00}, 0, true},
		{"cut mid-varint", []byte{0x80}, 0, false},
		{"cut mid-varint, three bytes", []byte{0xff, 0xff, 0xff}, 0, false},
		{"empty", nil, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, tail := range [][]byte{nil, {0x05, 0x7f, 0x80, 0x01}} {
				in := append(append([]byte(nil), tc.enc...), tail...)
				n := 1
				if tail != nil {
					n = 4
				}
				out := make([]uint64, n)
				rest, ok := decodeIDs(in, out)
				want, wantRest, wantOK := refDecodeIDs(in, n)
				if ok != tc.ok || wantOK != tc.ok {
					t.Fatalf("tail %x: accepted %v, binary.Uvarint %v, want %v", tail, ok, wantOK, tc.ok)
				}
				if ok && (out[0] != tc.want || !slices.Equal(out, want) || !bytes.Equal(rest, wantRest)) {
					t.Fatalf("tail %x: got %v rest %x, want %v rest %x (first %d)", tail, out, rest, want, wantRest, tc.want)
				}
			}
			m, err := DecodeSampleChunk(append([]byte{1}, tc.enc...))
			if tc.ok != (err == nil) {
				t.Fatalf("SampleChunk: err %v, want accepted %v", err, tc.ok)
			}
			if err != nil && !errors.Is(err, ErrMalformed) {
				t.Fatalf("SampleChunk: err %v, want ErrMalformed", err)
			}
			if err == nil && (len(m.IDs) != 1 || m.IDs[0] != tc.want) {
				t.Fatalf("SampleChunk: %v, want [%d]", m.IDs, tc.want)
			}
		})
	}
	// A list cut mid-varint: two ids declared, the second begun and not ended.
	if _, err := DecodeSampleChunk([]byte{2, 0x05, 0x80}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("list cut mid-varint: %v, want ErrMalformed", err)
	}
}
