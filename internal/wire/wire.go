// Package wire is the compact binary protocol of the serving tier's data
// plane — the length-prefixed frame format spoken on bstserved's -bin-addr
// listener, next to (not instead of) the HTTP/JSON API.
//
// Every frame is a fixed 12-byte header followed by a varint-encoded
// body:
//
//	offset  size  field
//	0       4     body length (uint32, little-endian; header excluded)
//	4       1     protocol version (Version)
//	5       1     opcode
//	6       1     flags
//	7       1     reserved, must be zero
//	8       4     request id (uint32, little-endian)
//
// The request id correlates pipelined responses with their requests: a
// client may have many requests outstanding on one connection, and the
// server answers each with frames carrying the same id. Streaming sample
// responses reuse the id as the stream id — chunk frames, credit grants
// and the final chunk all carry it.
//
// Bodies are built from two primitives only: unsigned varints
// (encoding/binary's Uvarint) and length-prefixed byte strings. Field
// order is fixed per opcode; see messages.go. There is no framing inside
// a body — a body either decodes completely or the frame is a protocol
// error, and decoders never panic on hostile input (FuzzDecodeFrame
// pins that).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the protocol version carried by every frame. A server
// receiving any other version answers with an ErrCodeVersion error frame
// and closes the connection — there is no negotiation.
const Version = 1

// HeaderSize is the fixed frame-header length in bytes.
const HeaderSize = 12

// DefaultMaxBody bounds a frame body when the reader does not say
// otherwise. It matches the HTTP API's default request-body cap.
const DefaultMaxBody = 1 << 20

// Opcodes: the data plane only — sampling, reconstruction, intersection
// estimates and writes. Stats, snapshots and restores are HTTP's
// (/v1/stats, /v1/snapshot, /v1/restore). Requests flow client→server,
// responses server→client; the ranges do not overlap so a trace is
// unambiguous about direction. 8, 9, 10, 21 and 22 are retired (they were
// stats, snapshot and restore and their replies) and stay unassigned: a
// server answers them as any unknown opcode.
const (
	// Requests.
	OpSample       byte = 1 // SampleReq → OpSampleResult (buffered)
	OpSampleStream byte = 2 // SampleReq → OpSampleChunk frames, last one FlagFinal
	OpCredit       byte = 3 // CreditGrant: replenish a stream's sample credit
	OpReconstruct  byte = 4 // ReconstructReq → OpIDsResult
	OpIntersection byte = 5 // IntersectionReq → OpEstimateResult
	OpAdd          byte = 6 // AddReq → OpAckResult
	OpRemove       byte = 7 // RemoveReq → OpAckResult

	// Responses.
	OpSampleResult   byte = 16 // SampleResult
	OpSampleChunk    byte = 17 // SampleChunk (stream; FlagFinal on the last)
	OpIDsResult      byte = 18 // IDsResult (reconstruction)
	OpEstimateResult byte = 19 // EstimateResult (intersection)
	OpAckResult      byte = 20 // AckResult (add/remove)
	OpBusy           byte = 30 // empty body: admission control shed this request; retry later
	OpError          byte = 31 // ErrorResult
)

// Flags.
const (
	// FlagDynamic mirrors the JSON "dynamic" field on sample/reconstruct
	// requests.
	//
	// Deprecated: the server accepts and ignores it — the key says what
	// kind of set it holds. To be dropped with bench/'s use of it.
	FlagDynamic byte = 1 << 0
	// FlagUniform makes a sample request exactly uniform from the pinned
	// version's first draw, on any key: picks from the version's positives,
	// which the request scans for if nobody has yet.
	FlagUniform byte = 1 << 1
	// FlagFinal marks the last chunk frame of a streaming response.
	FlagFinal byte = 1 << 2
)

// Error codes carried by OpError frames. They deliberately shadow the
// HTTP statuses the JSON API maps the same conditions onto, so one
// client-side error taxonomy covers both surfaces.
const (
	ErrCodeBadRequest uint64 = 400
	ErrCodeNotFound   uint64 = 404
	ErrCodeConflict   uint64 = 409
	ErrCodeTooLarge   uint64 = 413
	ErrCodeBusy       uint64 = 429 // also signaled headerlessly by OpBusy
	ErrCodeTimeout    uint64 = 408 // peer too slow (e.g. a stream starved of credit)
	ErrCodeInternal   uint64 = 500
	ErrCodeVersion    uint64 = 505
	ErrCodeShutdown   uint64 = 503 // server is draining; connection will close
)

// Protocol errors returned by the decoders. All hostile-input failures
// map onto one of these (possibly wrapped with detail), never a panic.
var (
	// ErrTruncated marks a frame or body that ended before its declared
	// length — an interrupted peer or a corrupt stream.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrFrameTooLarge marks a header declaring a body above the reader's
	// limit. The connection cannot be resynchronized past it (the next
	// header offset is unknown to a reader that refuses the body), so
	// callers close on it.
	ErrFrameTooLarge = errors.New("wire: frame body exceeds limit")
	// ErrVersion marks a frame from a different protocol version.
	ErrVersion = errors.New("wire: protocol version mismatch")
	// ErrMalformed marks a body whose varint structure does not decode.
	ErrMalformed = errors.New("wire: malformed frame body")
	// ErrReserved marks a header with a nonzero reserved byte.
	ErrReserved = errors.New("wire: reserved header byte is nonzero")
)

// Header is the decoded fixed prefix of one frame.
type Header struct {
	Length    uint32 // body bytes following the header
	Version   byte
	Opcode    byte
	Flags     byte
	RequestID uint32
}

// AppendFrame appends one complete frame (header + body) to dst and
// returns the extended slice. body may be nil for empty-body opcodes.
func AppendFrame(dst []byte, op, flags byte, requestID uint32, body []byte) []byte {
	start := len(dst)
	dst = append(AppendHeader(dst, op, flags, requestID), body...)
	EndFrame(dst[start:])
	return dst
}

// AppendHeader appends a frame's header to dst with the body length left
// open. It is the in-place form of AppendFrame, for a sender whose body
// exists nowhere yet: append the header, have the message Encode itself
// behind it, and EndFrame closes the frame — the body is written once.
func AppendHeader(dst []byte, op, flags byte, requestID uint32) []byte {
	var hdr [HeaderSize]byte
	hdr[4] = Version
	hdr[5] = op
	hdr[6] = flags
	binary.LittleEndian.PutUint32(hdr[8:12], requestID)
	return append(dst, hdr[:]...)
}

// EndFrame fills in the body length of the frame that starts at frame[0]:
// an AppendHeader header and every byte appended behind it since.
func EndFrame(frame []byte) {
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(frame)-HeaderSize))
}

// DecodeHeader decodes the fixed 12-byte prefix. It validates version
// and the reserved byte but not the length bound — the caller owns the
// body-size policy (ReadFrame applies one).
func DecodeHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, ErrTruncated
	}
	h := Header{
		Length:    binary.LittleEndian.Uint32(b[0:4]),
		Version:   b[4],
		Opcode:    b[5],
		Flags:     b[6],
		RequestID: binary.LittleEndian.Uint32(b[8:12]),
	}
	if h.Version != Version {
		return h, fmt.Errorf("%w: got %d, want %d", ErrVersion, h.Version, Version)
	}
	if b[7] != 0 {
		return h, ErrReserved
	}
	return h, nil
}

// ReadFrame reads one frame from r, rejecting bodies above maxBody
// (maxBody <= 0 means DefaultMaxBody). On ErrFrameTooLarge the body has
// not been consumed and the stream is unrecoverable; close it.
func ReadFrame(r io.Reader, maxBody int) (Header, []byte, error) {
	if maxBody <= 0 {
		maxBody = DefaultMaxBody
	}
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Header{}, nil, ErrTruncated
		}
		return Header{}, nil, err // clean EOF between frames stays io.EOF
	}
	h, err := DecodeHeader(hdr[:])
	if err != nil {
		return h, nil, err
	}
	if int64(h.Length) > int64(maxBody) {
		return h, nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, h.Length, maxBody)
	}
	if h.Length == 0 {
		return h, nil, nil
	}
	body := make([]byte, h.Length)
	if _, err := io.ReadFull(r, body); err != nil {
		return h, nil, ErrTruncated
	}
	return h, body, nil
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, op, flags byte, requestID uint32, body []byte) error {
	_, err := w.Write(AppendFrame(nil, op, flags, requestID, body))
	return err
}
