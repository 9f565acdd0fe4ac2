package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"
)

// ErrBusy is returned when the server sheds the request via admission
// control (OpBusy or an ErrCodeBusy error frame). The request did no
// work server-side; the caller may retry, ideally after backing off.
var ErrBusy = errors.New("wire: server busy, request shed")

// Client is a synchronous client for the binary protocol: one request
// outstanding at a time per Client. It is not safe for concurrent use —
// open one Client per goroutine (connections are cheap; the server's
// per-connection state is a few hundred bytes). The server side supports
// pipelining; this client simply doesn't need it for load generation and
// tests, and a synchronous client cannot deadlock itself on flow control.
type Client struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	nextID  uint32
	maxBody int
	scratch []byte

	// Timeout bounds each request round-trip (and each chunk of a
	// stream). Zero means no deadline.
	Timeout time.Duration
}

// Dial connects to a binary-protocol listener.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn:    conn,
		br:      bufio.NewReaderSize(conn, 64<<10),
		bw:      bufio.NewWriterSize(conn, 64<<10),
		maxBody: DefaultMaxBody,
	}
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// send writes one frame and flushes. The body is encoded once, in place
// behind the header in the client's scratch buffer (encode appends it), and
// EndFrame closes the frame.
func (c *Client) send(op, flags byte, reqID uint32, encode func([]byte) []byte) error {
	c.scratch = encode(AppendHeader(c.scratch[:0], op, flags, reqID))
	EndFrame(c.scratch)
	if _, err := c.bw.Write(c.scratch); err != nil {
		return err
	}
	return c.bw.Flush()
}

// recv reads the next frame for reqID, surfacing OpBusy/OpError as Go
// errors. Frames for other request ids are a protocol violation for this
// synchronous client (it never has two requests outstanding).
func (c *Client) recv(reqID uint32) (Header, []byte, error) {
	h, body, err := ReadFrame(c.br, c.maxBody)
	if err != nil {
		return h, nil, err
	}
	if h.RequestID != reqID {
		return h, nil, fmt.Errorf("%w: response for request %d, want %d", ErrMalformed, h.RequestID, reqID)
	}
	switch h.Opcode {
	case OpBusy:
		return h, nil, ErrBusy
	case OpError:
		er, derr := DecodeErrorResult(body)
		if derr != nil {
			return h, nil, derr
		}
		if er.Code == ErrCodeBusy {
			return h, nil, ErrBusy
		}
		return h, nil, er
	}
	return h, body, nil
}

// roundTrip sends one request and returns the single response frame,
// checking its opcode.
func (c *Client) roundTrip(op, flags byte, encode func([]byte) []byte, wantOp byte) ([]byte, error) {
	if c.Timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.Timeout)); err != nil {
			return nil, err
		}
	}
	c.nextID++
	id := c.nextID
	if err := c.send(op, flags, id, encode); err != nil {
		return nil, err
	}
	h, resp, err := c.recv(id)
	if err != nil {
		return nil, err
	}
	if h.Opcode != wantOp {
		return nil, fmt.Errorf("%w: opcode %d, want %d", ErrMalformed, h.Opcode, wantOp)
	}
	return resp, nil
}

// SampleOpts selects the sampling mode of Sample/SampleStream.
type SampleOpts struct {
	Dynamic bool // Deprecated: sets FlagDynamic, which the server ignores.
	Uniform bool
}

func (o SampleOpts) flags() byte {
	var f byte
	if o.Dynamic {
		f |= FlagDynamic
	}
	if o.Uniform {
		f |= FlagUniform
	}
	return f
}

// Sample draws n samples in one buffered response.
func (c *Client) Sample(key string, n int, o SampleOpts) ([]uint64, error) {
	m := SampleReq{Key: key, N: uint64(n)}
	resp, err := c.roundTrip(OpSample, o.flags(), func(dst []byte) []byte { return m.Encode(dst, false) }, OpSampleResult)
	if err != nil {
		return nil, err
	}
	res, err := DecodeSampleResult(resp)
	if err != nil {
		return nil, err
	}
	return res.IDs, nil
}

// SampleStream draws n samples as a credit-controlled stream, calling
// emit for each chunk. window is the credit window in samples (0 uses a
// sensible default): the server never has more than window samples sent
// but unacknowledged, and the client grants credit back as emit returns —
// a slow consumer therefore stalls the server's drawing instead of
// buffering the whole batch in either process.
func (c *Client) SampleStream(key string, n int, o SampleOpts, window int, emit func(ids []uint64) error) error {
	if window <= 0 {
		window = 8192
	}
	if window > n {
		window = n
	}
	c.nextID++
	id := c.nextID
	m := SampleReq{Key: key, N: uint64(n), Credit: uint64(window)}
	if c.Timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.Timeout)); err != nil {
			return err
		}
	}
	if err := c.send(OpSampleStream, o.flags(), id, func(dst []byte) []byte { return m.Encode(dst, true) }); err != nil {
		return err
	}
	for {
		if c.Timeout > 0 {
			if err := c.conn.SetDeadline(time.Now().Add(c.Timeout)); err != nil {
				return err
			}
		}
		h, resp, err := c.recv(id)
		if err != nil {
			return err
		}
		if h.Opcode != OpSampleChunk {
			return fmt.Errorf("%w: opcode %d mid-stream, want %d", ErrMalformed, h.Opcode, OpSampleChunk)
		}
		chunk, err := DecodeSampleChunk(resp)
		if err != nil {
			return err
		}
		if len(chunk.IDs) > 0 {
			if err := emit(chunk.IDs); err != nil {
				return err
			}
		}
		if h.Flags&FlagFinal != 0 {
			return nil
		}
		// Consumed: grant the credit back so the server draws the next
		// window. Granting after emit (not before) is what makes the
		// window a real consumption bound.
		if len(chunk.IDs) > 0 {
			if err := c.send(OpCredit, 0, id, CreditGrant{N: uint64(len(chunk.IDs))}.Encode); err != nil {
				return err
			}
		}
	}
}

// Add writes one or more sets through the group-commit path.
func (c *Client) Add(sets ...AddSet) (AckResult, error) {
	resp, err := c.roundTrip(OpAdd, 0, AddReq{Sets: sets}.Encode, OpAckResult)
	if err != nil {
		return AckResult{}, err
	}
	return DecodeAckResult(resp)
}

// Remove removes ids from a removable set (all-or-nothing).
func (c *Client) Remove(key string, ids []uint64) (AckResult, error) {
	resp, err := c.roundTrip(OpRemove, 0, RemoveReq{Key: key, IDs: ids}.Encode, OpAckResult)
	if err != nil {
		return AckResult{}, err
	}
	return DecodeAckResult(resp)
}

// Reconstruct returns the full contents of a stored set. dynamic is
// deprecated: it sets FlagDynamic, which the server ignores.
func (c *Client) Reconstruct(key string, dynamic bool) ([]uint64, error) {
	var flags byte
	if dynamic {
		flags = FlagDynamic
	}
	resp, err := c.roundTrip(OpReconstruct, flags, ReconstructReq{Key: key}.Encode, OpIDsResult)
	if err != nil {
		return nil, err
	}
	res, err := DecodeIDsResult(resp)
	if err != nil {
		return nil, err
	}
	return res.IDs, nil
}

// Intersection estimates |A ∩ B| for two stored sets.
func (c *Client) Intersection(keyA, keyB string) (float64, error) {
	resp, err := c.roundTrip(OpIntersection, 0, IntersectionReq{KeyA: keyA, KeyB: keyB}.Encode, OpEstimateResult)
	if err != nil {
		return 0, err
	}
	res, err := DecodeEstimateResult(resp)
	if err != nil {
		return 0, err
	}
	return res.Estimate, nil
}
