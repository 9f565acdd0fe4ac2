package server

// The binary listener and codec: the compact wire protocol
// (internal/wire) served next to the HTTP/JSON API for the data plane —
// sampling, reconstruction, intersection estimates and writes — over the
// same operations (ops.go), the same endpoint table and the same admission
// gates. The protocol exists because the serving benchmark
// showed JSON encode/decode as a visible per-request cost; this path
// replaces it with varint frames and replaces HTTP's per-request
// connection machinery with pipelined frames on long-lived connections.
// The operator plane (stats, snapshot, restore) has no opcode: it is
// HTTP's alone.
//
// What runs where: each connection has one reader goroutine (binConn.serve).
// A request that arrives alone — nothing else of its connection in flight,
// nothing read behind it, not a stream — is served by that reader, the way
// net/http serves a connection's requests; a frame of a pipelined burst, a
// stream, and anything arriving beside a stream or another request gets a
// goroutine of its own, so bursts still run concurrently up to the window
// and credit frames still overtake (binConn.dispatch has the rule and what
// it costs a client that trickles its pipeline).
//
// Backpressure happens at three levels, innermost first:
//
//   - per-connection window (Config.ConnWindow): at most that many
//     requests of one connection are in flight at once; excess frames
//     get an immediate BUSY frame. One greedy pipelining client
//     therefore saturates itself, not the server.
//   - global budget (Config.MaxInFlight) and the write sub-budget
//     (Config.MaxWrites), shared with the HTTP listener: when the
//     server-wide budget is gone, requests are shed with BUSY instead
//     of queueing behind the group-commit path.
//   - per-stream credit: a streaming sample response may only have
//     Credit unconsumed samples in flight; the server stalls drawing
//     (creditStalls counts it) until the client grants more via
//     OpCredit frames. The unit is ids sent: a draw that comes back
//     short gives the difference back, so what the client can grant
//     (ids it received) always matches what the stream was charged. A
//     slow stream consumer therefore costs the server a parked
//     goroutine, not an unbounded buffer.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// ErrBinaryClosed is returned by ServeBinary after ShutdownBinary tears
// the listener down — the binary analogue of http.ErrServerClosed.
var ErrBinaryClosed = errors.New("server: binary listener closed")

// binState is the binary listener's shared state and counters, embedded
// in Server so /v1/stats can report it and both protocols share gates.
type binState struct {
	mu    sync.Mutex
	ln    net.Listener
	conns map[*binConn]struct{} // every connection whose reader is running
	// draining is set once, under mu, by ShutdownBinary: the accept loop reads
	// it under mu too, so no connection joins conns after it is set; the
	// request path reads it without the lock.
	draining atomic.Bool

	connsActive   atomic.Int64
	connsTotal    atomic.Uint64
	framesIn      atomic.Uint64
	framesOut     atomic.Uint64
	servedInline  atomic.Uint64
	streamsActive atomic.Int64
	creditStalls  atomic.Uint64
	protoErrors   atomic.Uint64
	shed          atomic.Uint64
}

// ServeBinary accepts and serves binary-protocol connections on ln until
// ShutdownBinary (then it returns ErrBinaryClosed) or a fatal accept
// error. Call it from its own goroutine, like http.Server.Serve.
func (s *Server) ServeBinary(ln net.Listener) error {
	s.bin.mu.Lock()
	if s.bin.draining.Load() {
		s.bin.mu.Unlock()
		ln.Close()
		return ErrBinaryClosed
	}
	if s.bin.ln != nil {
		s.bin.mu.Unlock()
		ln.Close()
		return errors.New("server: ServeBinary called twice")
	}
	s.bin.ln = ln
	if s.bin.conns == nil {
		s.bin.conns = map[*binConn]struct{}{}
	}
	s.bin.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.bin.draining.Load() {
				return ErrBinaryClosed
			}
			return err
		}
		bc := &binConn{srv: s, conn: conn, streams: map[uint32]*binStream{}}
		s.bin.mu.Lock()
		if s.bin.draining.Load() {
			s.bin.mu.Unlock()
			conn.Close()
			continue
		}
		s.bin.conns[bc] = struct{}{}
		s.bin.mu.Unlock()
		s.bin.connsActive.Add(1)
		bc.id = s.bin.connsTotal.Add(1)
		go func() {
			bc.serve()
			// Leaving conns is the reader's last act: an empty set is what
			// ShutdownBinary waits for.
			s.bin.connsActive.Add(-1)
			s.bin.mu.Lock()
			delete(s.bin.conns, bc)
			s.bin.mu.Unlock()
		}()
	}
}

// ShutdownBinary drains the binary listener: stop accepting, close idle
// connections immediately, let in-flight requests (streams included)
// finish until ctx expires, then force-close whatever remains. It always
// returns with every connection closed; the error reports whether the
// drain was graceful (nil) or cut short (ctx.Err()).
//
// A forced close makes every reader's next read fail, so the readers are
// waited for — all but one that is inside a request of its own (a lone
// request runs on its reader, see dispatch) and parked where closing the
// socket cannot reach it, a write waiting for its fsync: that request is
// abandoned to finish or fail by itself, as a forced close has always
// abandoned the requests that run on goroutines of their own, and ctx
// bounds the drain whatever any request is waiting for.
func (s *Server) ShutdownBinary(ctx context.Context) error {
	s.bin.mu.Lock()
	s.bin.draining.Store(true)
	ln := s.bin.ln
	s.bin.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	expired, force := ctx.Done(), false
	for {
		if s.closeBinaryConns(force) == 0 {
			if force {
				return ctx.Err()
			}
			return nil
		}
		select {
		case <-expired:
			expired, force = nil, true
		case <-ticker.C:
		}
	}
}

// closeBinaryConns closes idle connections (zero in-flight requests), or
// every connection when force is set, and returns how many readers the
// drain has yet to see leave: every one still running, less — once the
// close is forced — those serving a request themselves.
func (s *Server) closeBinaryConns(force bool) (waiting int) {
	s.bin.mu.Lock()
	conns := make([]*binConn, 0, len(s.bin.conns))
	for bc := range s.bin.conns {
		conns = append(conns, bc)
	}
	s.bin.mu.Unlock()
	for _, bc := range conns {
		if force || bc.inflight.Load() == 0 {
			bc.close()
		}
		if !force || !bc.serving.Load() {
			waiting++
		}
	}
	return waiting
}

// binConn is one accepted binary-protocol connection. The reader loop
// (serve) owns the read side. A response is written by whoever runs its
// request — the reader itself for a lone request, the request's own
// goroutine otherwise (dispatch) — under writeMu, one whole frame per
// critical section, so pipelined responses never interleave.
type binConn struct {
	srv      *Server
	conn     net.Conn
	id       uint64 // connection ordinal, the request-ID prefix in traces
	writeMu  sync.Mutex
	inflight atomic.Int32
	serving  atomic.Bool // the reader is inside a request; read by a forced drain

	streamsMu sync.Mutex
	streams   map[uint32]*binStream
	closed    bool // streams map sealed; set on teardown under streamsMu
}

func (bc *binConn) close() { bc.conn.Close() }

// serve runs the reader loop until the peer disconnects, a protocol
// error poisons the stream, or shutdown closes the connection.
func (bc *binConn) serve() {
	defer bc.conn.Close()
	defer bc.abortStreams()
	br := newBufReader(bc.conn)
	for {
		h, body, err := wire.ReadFrame(br, int(bc.srv.cfg.MaxBodyBytes))
		if err != nil {
			switch {
			case errors.Is(err, io.EOF):
				// clean disconnect between frames
			case errors.Is(err, wire.ErrVersion):
				bc.srv.bin.protoErrors.Add(1)
				bc.writeError(h.RequestID, wire.ErrCodeVersion, err.Error())
			case errors.Is(err, wire.ErrFrameTooLarge):
				bc.srv.bin.protoErrors.Add(1)
				bc.writeError(h.RequestID, wire.ErrCodeTooLarge, err.Error())
			case errors.Is(err, wire.ErrTruncated), errors.Is(err, wire.ErrReserved):
				bc.srv.bin.protoErrors.Add(1)
			}
			// Any of these poisons the framing; the next header offset is
			// unknowable, so the connection closes rather than guessing.
			return
		}
		bc.srv.bin.framesIn.Add(1)
		bc.dispatch(h, body, br.Buffered() == 0)
	}
}

// dispatch admits one request frame and starts it, or sheds it. Credit
// grants are handled inline — they must overtake queued requests, that is
// their whole point.
//
// An admitted request is started one of two ways, chosen by what the
// connection's input shows. When it is the connection's only request in
// flight, nothing more has been read behind it (last) and it is not a
// stream, there is nothing a goroutine of its own could overlap with — the
// client is waiting for this reply — so the reader runs it itself, as
// net/http serves an HTTP/1.1 connection's requests on the connection's
// goroutine: no spawn, no fresh stack grown down the descent, no wake-up per
// frame. Everything else gets its goroutine: a frame of a pipelined burst
// (up to ConnWindow run at once), anything that arrives beside a live
// stream or another request, and a stream itself, whose credit frames only
// a free reader can take. What a client pays for the first way: a frame
// sent on its own while the reader is serving waits in the socket buffer
// for that one request instead of starting beside it. A client that wants
// its requests to run at once sends them together, or on connections of
// their own.
func (bc *binConn) dispatch(h wire.Header, body []byte, last bool) {
	if h.Opcode == wire.OpCredit {
		bc.grantCredit(h.RequestID, body)
		return
	}
	var ep *endpoint
	for i := range endpoints {
		if endpoints[i].frame != nil && endpoints[i].opcode == h.Opcode {
			ep = &endpoints[i]
			break
		}
	}
	if ep == nil {
		bc.srv.bin.protoErrors.Add(1)
		bc.writeError(h.RequestID, wire.ErrCodeBadRequest, fmt.Sprintf("unknown opcode %d", h.Opcode))
		return
	}
	m := bc.srv.metrics[ep.bin]
	if bc.srv.bin.draining.Load() {
		bc.writeError(h.RequestID, wire.ErrCodeShutdown, "server draining")
		return
	}
	// A shed is the fast path out: no body decode, no database work, one
	// 12-byte BUSY frame back.
	arrived := time.Now()
	if refused := bc.srv.admit(ep, &bc.inflight); refused != "" {
		bc.srv.shed(m, ep.bin, "binary", nil, refused)
		bc.srv.bin.shed.Add(1)
		bc.writeFrame(wire.OpBusy, 0, h.RequestID, nil)
		return
	}
	// The trace's request ID combines the connection ordinal with the
	// frame's request id, the one the response frame echoes: the trace
	// keeps the two numbers and spells "bin-3-17" when a log line asks.
	var tr *obs.Trace
	if !bc.srv.cfg.TraceDisabled {
		tr = obs.NewFrameTrace(bc.id, h.RequestID)
		tr.Add(obs.StageAdmission, time.Since(arrived))
	}
	if !last || bc.inflight.Load() != 1 || h.Opcode == wire.OpSampleStream {
		go bc.run(ep, m, tr, h, body)
		return
	}
	bc.srv.bin.servedInline.Add(1)
	bc.serving.Store(true)
	bc.run(ep, m, tr, h, body)
	bc.serving.Store(false)
}

// run serves one admitted request to its end: the codec, the error frame,
// the books (finish) and the admission slots (release).
func (bc *binConn) run(ep *endpoint, m *endpointMetrics, tr *obs.Trace, h wire.Header, body []byte) {
	start := time.Now()
	err := ep.frame(bc, tr, h, body)
	if err != nil && !errors.Is(err, errStreamAborted) {
		// One taxonomy for both protocols: the wire error code is the
		// HTTP status. Decode failures are the client's mistake and
		// additionally count as protocol errors.
		code := uint64(statusFor(err))
		if errors.Is(err, wire.ErrMalformed) {
			bc.srv.bin.protoErrors.Add(1)
			code = wire.ErrCodeBadRequest
		}
		bc.writeError(h.RequestID, code, err.Error())
	}
	bc.srv.finish(m, ep.bin, "binary", tr, start, err)
	bc.srv.release(ep, &bc.inflight)
}

// frameBody is a wire message as a sender sees it: it packs itself behind
// whatever dst already holds.
type frameBody interface{ Encode(dst []byte) []byte }

// writeFrame packs one frame in place — its header, then m's body behind
// it (nil for an empty-body opcode) — in a pooled reply buffer (reply.go) and
// writes it under the write lock with a write deadline, so one dead peer
// cannot park every handler goroutine of its connection forever.
func (bc *binConn) writeFrame(op, flags byte, reqID uint32, m frameBody) error {
	rb := newReply()
	rb.b = wire.AppendHeader(rb.b, op, flags, reqID)
	if m != nil {
		rb.b = m.Encode(rb.b)
	}
	wire.EndFrame(rb.b)
	bc.writeMu.Lock()
	_ = bc.conn.SetWriteDeadline(time.Now().Add(bc.srv.cfg.StreamWriteTimeout))
	_, err := bc.conn.Write(rb.b)
	bc.writeMu.Unlock()
	rb.release()
	if err == nil {
		bc.srv.bin.framesOut.Add(1)
	}
	return err
}

func (bc *binConn) writeError(reqID uint32, code uint64, msg string) {
	_ = bc.writeFrame(wire.OpError, 0, reqID, wire.ErrorResult{Code: code, Msg: msg})
}

// reply writes one response frame, charging the body's varint packing and
// the wire write, with its lock and deadline, to the trace's encode stage:
// the stage covers what writeJSON's does over HTTP. A failed write means the
// peer is gone: the request ends as aborted, with no error frame sent after
// it.
func (bc *binConn) reply(tr *obs.Trace, op, flags byte, reqID uint32, m frameBody) error {
	t0 := time.Now()
	err := bc.writeFrame(op, flags, reqID, m)
	tr.Add(obs.StageEncode, time.Since(t0))
	if err != nil {
		return fmt.Errorf("%w: %v", errStreamAborted, err)
	}
	return nil
}

// decodeFrame runs one frame-body decoder, charging it to the trace's
// decode stage.
func decodeFrame[M any](tr *obs.Trace, dec func([]byte) (M, error), body []byte) (M, error) {
	t0 := time.Now()
	m, err := dec(body)
	tr.Add(obs.StageDecode, time.Since(t0))
	return m, err
}

// binStream is the flow-control state of one streaming response: its
// credit window, in ids. A nil *binStream is a stream without one (the
// NDJSON framing): take is the identity and grant a no-op.
type binStream struct {
	credit atomic.Int64
	notify chan struct{} // capacity 1: "credit changed"
	done   chan struct{} // closed on connection teardown
}

// take claims up to max samples of credit, waiting (bounded by timeout)
// for a grant when the window is empty.
func (st *binStream) take(max int, timeout time.Duration, stalls *atomic.Uint64) (int, error) {
	if st == nil {
		return max, nil
	}
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		c := st.credit.Load()
		if c > 0 {
			n := int64(max)
			if c < n {
				n = c
			}
			if st.credit.CompareAndSwap(c, c-n) {
				return int(n), nil
			}
			continue
		}
		if timer == nil {
			timer = time.NewTimer(timeout)
			stalls.Add(1)
		}
		select {
		case <-st.notify:
		case <-st.done:
			return 0, errStreamAborted
		case <-timer.C:
			return 0, errStreamStarved
		}
	}
}

// grant adds n ids of credit: a client's OpCredit, or the stream's own
// refund of credit that take claimed and the draw did not use.
func (st *binStream) grant(n uint64) {
	if st == nil || n == 0 {
		return
	}
	st.credit.Add(int64(n))
	select {
	case st.notify <- struct{}{}:
	default:
	}
}

// registerStream installs the flow-control state for stream id, failing
// on a duplicate id (a client bug) or a torn-down connection.
func (bc *binConn) registerStream(id uint32, st *binStream) error {
	bc.streamsMu.Lock()
	defer bc.streamsMu.Unlock()
	if bc.closed {
		return errStreamAborted
	}
	if _, dup := bc.streams[id]; dup {
		return fmt.Errorf("%w: stream id %d already active", wire.ErrMalformed, id)
	}
	bc.streams[id] = st
	return nil
}

func (bc *binConn) unregisterStream(id uint32) {
	bc.streamsMu.Lock()
	delete(bc.streams, id)
	bc.streamsMu.Unlock()
}

// abortStreams wakes every parked stream worker on connection teardown.
func (bc *binConn) abortStreams() {
	bc.streamsMu.Lock()
	bc.closed = true
	for id, st := range bc.streams {
		close(st.done)
		delete(bc.streams, id)
	}
	bc.streamsMu.Unlock()
}

// grantCredit applies an OpCredit frame. Grants for unknown stream ids
// are dropped silently: the stream may have finished (or failed) while
// the grant was in flight, which is a benign race, not a protocol error.
func (bc *binConn) grantCredit(id uint32, body []byte) {
	g, err := wire.DecodeCreditGrant(body)
	if err != nil {
		bc.srv.bin.protoErrors.Add(1)
		bc.writeError(id, wire.ErrCodeBadRequest, err.Error())
		return
	}
	bc.streamsMu.Lock()
	st := bc.streams[id]
	bc.streamsMu.Unlock()
	st.grant(g.N)
}

// binSample serves OpSample (one SampleResult frame) and OpSampleStream:
// the credit-gated framing of sampleStream, one chunk frame per draw,
// FlagFinal on the last.
func (bc *binConn) binSample(tr *obs.Trace, h wire.Header, body []byte) error {
	stream := h.Opcode == wire.OpSampleStream
	m, err := decodeFrame(tr, func(b []byte) (wire.SampleReq, error) { return wire.DecodeSampleReq(b, stream) }, body)
	if err != nil {
		return err
	}
	req := SampleRequest{
		Key:     m.Key,
		N:       int(m.N),
		Uniform: h.Flags&wire.FlagUniform != 0,
		Stream:  stream,
	}
	if !stream {
		resp, err := bc.srv.sample(req)
		if err != nil {
			return err
		}
		out := wire.SampleResult{Requested: uint64(resp.Requested), IDs: resp.IDs}
		return bc.reply(tr, wire.OpSampleResult, 0, h.RequestID, out)
	}
	st := &binStream{notify: make(chan struct{}, 1), done: make(chan struct{})}
	st.credit.Store(int64(m.Credit))
	if err := bc.registerStream(h.RequestID, st); err != nil {
		return err
	}
	defer bc.unregisterStream(h.RequestID)
	bc.srv.bin.streamsActive.Add(1)
	defer bc.srv.bin.streamsActive.Add(-1)
	return bc.srv.sampleStream(req, st, func(ids []uint64, final bool) error {
		var flags byte
		if final {
			flags = wire.FlagFinal
		}
		return bc.reply(tr, wire.OpSampleChunk, flags, h.RequestID, wire.SampleChunk{IDs: ids})
	})
}

func (bc *binConn) binReconstruct(tr *obs.Trace, h wire.Header, body []byte) error {
	m, err := decodeFrame(tr, wire.DecodeReconstructReq, body)
	if err != nil {
		return err
	}
	rec, err := bc.srv.reconstruct(ReconstructRequest{Key: m.Key})
	if err != nil {
		return err
	}
	return bc.reply(tr, wire.OpIDsResult, 0, h.RequestID, rec)
}

// Encode appends the reconstruction's OpIDsResult body — wire.IDsResult's
// bytes, kept beside the table (rendering.wireBody) — to dst.
func (rec reconstruction) Encode(dst []byte) []byte { return append(dst, rec.kept.wireBody()...) }

func (bc *binConn) binIntersection(tr *obs.Trace, h wire.Header, body []byte) error {
	m, err := decodeFrame(tr, wire.DecodeIntersectionReq, body)
	if err != nil {
		return err
	}
	resp, err := bc.srv.intersection(IntersectionRequest{KeyA: m.KeyA, KeyB: m.KeyB})
	if err != nil {
		return err
	}
	return bc.reply(tr, wire.OpEstimateResult, 0, h.RequestID, wire.EstimateResult{Estimate: resp.Estimate})
}

func (bc *binConn) binAdd(tr *obs.Trace, h wire.Header, body []byte) error {
	m, err := decodeFrame(tr, wire.DecodeAddReq, body)
	if err != nil {
		return err
	}
	sets := make([]AddSet, len(m.Sets))
	for i, set := range m.Sets {
		sets[i] = AddSet{Key: set.Key, IDs: set.IDs, Dynamic: set.Dynamic}
	}
	resp, err := bc.srv.add(AddRequest{Sets: sets})
	if err != nil {
		return err
	}
	ack := wire.AckResult{Count: uint64(resp.Added), Keys: uint64(resp.Keys)}
	return bc.reply(tr, wire.OpAckResult, 0, h.RequestID, ack)
}

func (bc *binConn) binRemove(tr *obs.Trace, h wire.Header, body []byte) error {
	m, err := decodeFrame(tr, wire.DecodeRemoveReq, body)
	if err != nil {
		return err
	}
	resp, err := bc.srv.remove(RemoveRequest{Key: m.Key, IDs: m.IDs})
	if err != nil {
		return err
	}
	ack := wire.AckResult{Count: uint64(resp.Removed), Keys: 1}
	return bc.reply(tr, wire.OpAckResult, 0, h.RequestID, ack)
}
