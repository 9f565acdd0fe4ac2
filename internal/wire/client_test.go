package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"testing"
)

// shedServer answers the first shed requests with OpBusy frames, then a
// SampleResult, echoing each request's id. It exercises exactly the
// shape admission control produces: the request did no work, the client
// may safely send it again.
func shedServer(t *testing.T, conn net.Conn, sheds int) {
	t.Helper()
	go func() {
		defer conn.Close()
		for {
			h, _, err := ReadFrame(conn, 0)
			if err != nil {
				return // client closed
			}
			if sheds > 0 {
				sheds--
				_ = WriteFrame(conn, OpBusy, 0, h.RequestID, nil)
				continue
			}
			body := SampleResult{Requested: 2, IDs: []uint64{4, 9}}.Encode(nil)
			_ = WriteFrame(conn, OpSampleResult, 0, h.RequestID, body)
		}
	}()
}

func TestClientBusySurfacesWithoutRetries(t *testing.T) {
	cc, sc := net.Pipe()
	shedServer(t, sc, 1)
	c := NewClient(cc)
	defer c.Close()
	if _, err := c.Sample("k", 2, SampleOpts{}); !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	// The same connection still works for the next (unshed) request.
	ids, err := c.Sample("k", 2, SampleOpts{})
	if err != nil {
		t.Fatalf("request after shed: %v", err)
	}
	if !slices.Equal(ids, []uint64{4, 9}) {
		t.Fatalf("ids %v", ids)
	}
}

// frameServer records every frame its client sends, byte for byte, on
// frames, and answers each request as a server would: a chunk and, after
// the client's credit grant, a final chunk for a stream.
func frameServer(conn net.Conn, frames chan<- []byte) {
	defer conn.Close()
	for {
		raw := make([]byte, HeaderSize)
		if _, err := io.ReadFull(conn, raw); err != nil {
			return
		}
		h, err := DecodeHeader(raw)
		if err != nil {
			return
		}
		raw = append(raw, make([]byte, h.Length)...)
		if _, err := io.ReadFull(conn, raw[HeaderSize:]); err != nil {
			return
		}
		frames <- raw
		var op, flags byte
		var body []byte
		switch h.Opcode {
		case OpSample:
			op, body = OpSampleResult, SampleResult{Requested: 2, IDs: []uint64{4, 9}}.Encode(nil)
		case OpSampleStream:
			op, body = OpSampleChunk, SampleChunk{IDs: []uint64{1, 2}}.Encode(nil)
		case OpCredit:
			op, flags, body = OpSampleChunk, FlagFinal, SampleChunk{IDs: []uint64{3}}.Encode(nil)
		case OpAdd, OpRemove:
			op, body = OpAckResult, AckResult{Count: 1, Keys: 1}.Encode(nil)
		case OpReconstruct:
			op, body = OpIDsResult, IDsResult{IDs: []uint64{5}}.Encode(nil)
		case OpIntersection:
			op, body = OpEstimateResult, EstimateResult{Estimate: 1.5}.Encode(nil)
		}
		if err := WriteFrame(conn, op, flags, h.RequestID, body); err != nil {
			return
		}
	}
}

// TestClientFramesAreAppendFrame holds every request the client sends,
// its body encoded in place behind the header, to the frame AppendFrame
// makes of the message's own encoding: a sample, a stream and its credit
// grant, an add past the client's 64 KB write buffer, a remove, a
// reconstruction and an intersection.
func TestClientFramesAreAppendFrame(t *testing.T) {
	cc, sc := net.Pipe()
	frames := make(chan []byte, 16)
	go frameServer(sc, frames)
	c := NewClient(cc)
	defer c.Close()

	big := make([]uint64, 50_000)
	for i := range big {
		big[i] = uint64(i) * 37
	}
	sets := []AddSet{{Key: "a", IDs: big}, {Key: "b", Dynamic: true, IDs: []uint64{1 << 40}}}
	steps := []struct {
		name string
		run  func() error
		want [][]byte
	}{
		{"sample", func() error { _, err := c.Sample("k", 2, SampleOpts{Uniform: true}); return err },
			[][]byte{AppendFrame(nil, OpSample, FlagUniform, 1, SampleReq{Key: "k", N: 2}.Encode(nil, false))}},
		{"stream", func() error {
			return c.SampleStream("s", 3, SampleOpts{}, 2, func([]uint64) error { return nil })
		}, [][]byte{
			AppendFrame(nil, OpSampleStream, 0, 2, SampleReq{Key: "s", N: 3, Credit: 2}.Encode(nil, true)),
			AppendFrame(nil, OpCredit, 0, 2, CreditGrant{N: 2}.Encode(nil)),
		}},
		{"add", func() error { _, err := c.Add(sets...); return err },
			[][]byte{AppendFrame(nil, OpAdd, 0, 3, AddReq{Sets: sets}.Encode(nil))}},
		{"remove", func() error { _, err := c.Remove("d", []uint64{7, 300}); return err },
			[][]byte{AppendFrame(nil, OpRemove, 0, 4, RemoveReq{Key: "d", IDs: []uint64{7, 300}}.Encode(nil))}},
		{"reconstruct", func() error { _, err := c.Reconstruct("r", true); return err },
			[][]byte{AppendFrame(nil, OpReconstruct, FlagDynamic, 5, ReconstructReq{Key: "r"}.Encode(nil))}},
		{"intersection", func() error { _, err := c.Intersection("x", "y"); return err },
			[][]byte{AppendFrame(nil, OpIntersection, 0, 6, IntersectionReq{KeyA: "x", KeyB: "y"}.Encode(nil))}},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for i, want := range s.want {
			if got := <-frames; !bytes.Equal(got, want) {
				t.Fatalf("%s: frame %d is %d bytes, not AppendFrame's %d (or differs)", s.name, i, len(got), len(want))
			}
		}
	}
}
