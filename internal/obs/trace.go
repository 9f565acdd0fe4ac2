package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"log/slog"
	"strconv"
	"sync/atomic"
	"time"
)

// Stage is one phase of a request's lifetime. Per-stage timings tell
// apart where a slow request spent its time: waiting for admission,
// decoding the body, doing database work, or encoding the response.
type Stage uint8

const (
	StageAdmission Stage = iota // admission-gate acquisition
	StageDecode                 // request body/frame decode
	StageExecute                // database work (derived: total minus the others)
	StageEncode                 // response encode + write
	numStages
)

// NumStages is the number of distinct stages, for sizing per-stage
// counter arrays.
const NumStages = int(numStages)

// StageNames lists the stage label values in Stage order.
var StageNames = [NumStages]string{"admission", "decode", "execute", "encode"}

func (s Stage) String() string {
	if int(s) < NumStages {
		return StageNames[s]
	}
	return "unknown"
}

// Trace carries one request's ID and accumulated per-stage durations.
// It is owned by the request's handler goroutine; no synchronization.
// All methods are nil-receiver-safe so untraced paths (tracing disabled,
// or a context without a trace) cost a nil check and nothing else.
type Trace struct {
	id     string
	conn   uint64 // a frame's trace: its connection's ordinal, from 1 (0: not a frame's)
	frame  uint32 // and the frame's request id
	stages [NumStages]time.Duration
}

// NewTrace starts a trace under the given request ID.
func NewTrace(id string) *Trace { return &Trace{id: id} }

// NewFrameTrace starts the trace of one binary-protocol request: frame is
// the request id its response frame echoes and conn the ordinal of the
// connection it came in on, so a client can quote "bin-3-17" and the
// server's log line is findable. The two numbers are all a request carries;
// the text is built by ID, which only a shed, an error reply and the
// slow/debug request log read.
func NewFrameTrace(conn uint64, frame uint32) *Trace { return &Trace{conn: conn, frame: frame} }

// ID returns the request ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	if t.conn != 0 {
		b := strconv.AppendUint([]byte("bin-"), t.conn, 10)
		b = strconv.AppendUint(append(b, '-'), uint64(t.frame), 10)
		return string(b)
	}
	return t.id
}

// Add accumulates d into one stage.
func (t *Trace) Add(s Stage, d time.Duration) {
	if t == nil || d < 0 {
		return
	}
	t.stages[s] += d
}

// StageDur returns the accumulated duration of one stage.
func (t *Trace) StageDur(s Stage) time.Duration {
	if t == nil {
		return 0
	}
	return t.stages[s]
}

// FillExecute derives the execute stage as the handler total minus the
// measured decode and encode stages (admission is timed outside the
// handler total), clamped at zero so clock skew never yields a negative
// duration.
func (t *Trace) FillExecute(total time.Duration) {
	if t == nil {
		return
	}
	exec := total - t.stages[StageDecode] - t.stages[StageEncode]
	if exec < 0 {
		exec = 0
	}
	t.stages[StageExecute] = exec
}

// StageAttr renders the stage breakdown as one slog group attribute
// (microseconds per stage), for slow-request and error log lines.
func (t *Trace) StageAttr() slog.Attr {
	if t == nil {
		return slog.Group("stages")
	}
	attrs := make([]any, 0, NumStages)
	for i := 0; i < NumStages; i++ {
		attrs = append(attrs, slog.Float64(StageNames[i], float64(t.stages[i].Nanoseconds())/1e3))
	}
	return slog.Group("stages_us", attrs...)
}

type traceKey struct{}

// WithTrace attaches a trace to a context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil — and nil is safe to
// use with every Trace method.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// Request-ID generation: a random 64-bit base (crypto-seeded once) plus
// a splitmix64-mixed counter, rendered as 16 hex digits. Collision-free
// within a process, no per-request syscall, no lock.
var (
	ridBase    uint64
	ridCounter atomic.Uint64
)

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		ridBase = binary.LittleEndian.Uint64(b[:])
	} else {
		ridBase = uint64(time.Now().UnixNano())
	}
}

// NewRequestID returns a fresh 16-hex-digit request ID.
func NewRequestID() string {
	x := ridBase + ridCounter.Add(1)*0x9E3779B97F4A7C15
	// splitmix64 finalizer: counter increments must not produce
	// near-identical IDs.
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	const hexdigits = "0123456789abcdef"
	var out [16]byte
	for i := 15; i >= 0; i-- {
		out[i] = hexdigits[x&0xf]
		x >>= 4
	}
	return string(out[:])
}

// CleanRequestID validates a client-supplied request ID for propagation:
// at most 64 characters of [A-Za-z0-9._-]. Anything else returns "" and
// the caller generates a fresh ID — a header is attacker-controlled
// input headed for logs, so the allowlist is strict.
func CleanRequestID(s string) string {
	if len(s) == 0 || len(s) > 64 {
		return ""
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return s
}
