package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/setdb"
	"repro/internal/wire"
)

// newBinaryTestServer builds the shared test database, serves it on a
// loopback binary listener, and returns the Server plus the dial
// address. The HTTP side is reachable through the same Server value via
// httptest when a test needs both protocols at once.
func newBinaryTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	_, db := newTestServer(t, Config{}) // reuse the db builder; its httptest server is torn down by Cleanup
	s := New(db, cfg)
	return s, serveBinaryForTest(t, s)
}

// serveBinaryForTest serves s on a loopback binary listener until the test
// ends and returns the dial address.
func serveBinaryForTest(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveBinaryOn(t, s, ln)
	return ln.Addr().String()
}

// serveBinaryOn serves s on ln until the test (or benchmark) ends.
func serveBinaryOn(tb testing.TB, s *Server, ln net.Listener) {
	tb.Helper()
	done := make(chan error, 1)
	go func() { done <- s.ServeBinary(ln) }()
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = s.ShutdownBinary(ctx)
		if err := <-done; !errors.Is(err, ErrBinaryClosed) {
			tb.Errorf("ServeBinary returned %v, want ErrBinaryClosed", err)
		}
	})
}

// pipeListener hands ServeBinary the server ends of net.Pipes: a connection
// with no buffer of its own, where a write lasts until the peer has read it
// and nothing but the two ends allocates.
type pipeListener struct {
	conn chan net.Conn
	done chan struct{}
	once sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conn: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conn:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}
func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe"} }

// dial returns the client end of a new connection once the server has
// accepted the other.
func (l *pipeListener) dial() net.Conn {
	near, far := net.Pipe()
	l.conn <- far
	return near
}

func dialTestClient(t *testing.T, addr string) *wire.Client {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Timeout = 5 * time.Second
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBinaryRoundTrips(t *testing.T) {
	s, addr := newBinaryTestServer(t, Config{})
	c := dialTestClient(t, addr)

	// Plain sample: every id must be a member of the stored set.
	set, err := s.DB().Reconstruct("plain", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	member := map[uint64]bool{}
	for _, id := range set {
		member[id] = true
	}
	ids, err := c.Sample("plain", 64, wire.SampleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Fatal("no samples returned")
	}
	for _, id := range ids {
		if !member[id] {
			t.Fatalf("sample %d not a member", id)
		}
	}

	// An older client's frame, whose retired workers slot holds a count, is
	// served: the slot is read and ignored.
	body := binary.AppendUvarint(nil, uint64(len("plain")))
	body = append(body, "plain"...)
	body = binary.AppendUvarint(body, 64)     // n
	body = binary.AppendUvarint(body, 99_999) // workers
	raw := dialRaw(t, addr)
	if _, err := raw.Write(wire.AppendFrame(nil, wire.OpSample, 0, 5, body)); err != nil {
		t.Fatal(err)
	}
	h, resp := readReply(t, raw)
	res, err := wire.DecodeSampleResult(resp)
	if h.Opcode != wire.OpSampleResult || h.RequestID != 5 || err != nil || res.Requested != 64 || len(res.IDs) == 0 {
		t.Fatalf("a frame with the workers slot set: opcode %d, request %d, %+v, err %v", h.Opcode, h.RequestID, res, err)
	}
	for _, id := range res.IDs {
		if !member[id] {
			t.Fatalf("sample %d not a member", id)
		}
	}

	// Uniform mode.
	if ids, err = c.Sample("plain", 16, wire.SampleOpts{Uniform: true}); err != nil || len(ids) == 0 {
		t.Fatalf("uniform sample: %v (%d ids)", err, len(ids))
	}

	// Add (batch through group commit), then reconstruct it back.
	ack, err := c.Add(
		wire.AddSet{Key: "wireA", IDs: []uint64{10, 20, 30}},
		wire.AddSet{Key: "wireB", Dynamic: true, IDs: []uint64{40, 50}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Count != 5 || ack.Keys != 2 {
		t.Fatalf("ack mismatch: %+v", ack)
	}
	got, err := c.Reconstruct("wireA", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("reconstructed %v, want 3 ids", got)
	}

	// Dynamic remove, all-or-nothing.
	if _, err := c.Remove("wireB", []uint64{40}); err != nil {
		t.Fatal(err)
	}

	// Intersection estimate over two overlapping plain sets.
	if _, err := c.Add(wire.AddSet{Key: "wireC", IDs: []uint64{10, 20, 99}}); err != nil {
		t.Fatal(err)
	}
	est, err := c.Intersection("wireA", "wireC")
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 {
		t.Fatalf("intersection estimate %v, want > 0", est)
	}

	// Stats carries the wire section and the binary endpoint metrics.
	st := s.stats()
	if st.Wire.ConnsActive < 1 || st.Wire.ConnsTotal < 1 || st.Wire.FramesIn == 0 {
		t.Fatalf("wire stats not populated: %+v", st.Wire)
	}
	m := st.Endpoints["bin:sample"]
	if m.Requests == 0 || m.P50LatencyUS <= 0 || m.P99LatencyUS < m.P50LatencyUS {
		t.Fatalf("bin:sample metrics: %+v", m)
	}
}

// TestOneKeyBoundOnBothProtocols: the protocols bound a key alike, by what
// the database holds. A key of setdb.MaxKeyLen bytes added over HTTP is
// sampled, reconstructed and removed from over the binary protocol, and a
// key one byte longer is a 400 on both that stores nothing.
func TestOneKeyBoundOnBothProtocols(t *testing.T) {
	if wire.MaxKeyLen != setdb.MaxKeyLen {
		t.Fatalf("wire.MaxKeyLen is %d bytes, setdb.MaxKeyLen %d", wire.MaxKeyLen, setdb.MaxKeyLen)
	}
	s, addr := newBinaryTestServer(t, Config{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	c := dialTestClient(t, addr)

	longest := strings.Repeat("k", setdb.MaxKeyLen)
	if code := post(t, ts, "/v1/add", fmt.Sprintf(`{"key":"%s","ids":[1,2,3],"dynamic":true}`, longest), nil); code != http.StatusOK {
		t.Fatalf("HTTP add of a %d-byte key: status %d", len(longest), code)
	}
	ids, err := c.Sample(longest, 16, wire.SampleOpts{})
	if err != nil || len(ids) != 16 {
		t.Fatalf("binary sample of a %d-byte key: %d ids, %v", len(longest), len(ids), err)
	}
	for _, x := range ids {
		if x < 1 || x > 3 {
			t.Fatalf("binary sample of a %d-byte key drew %d, not one of 1, 2, 3", len(longest), x)
		}
	}
	if got, err := c.Reconstruct(longest, false); err != nil || !slices.Contains(got, 1) || !slices.Contains(got, 2) || !slices.Contains(got, 3) {
		t.Fatalf("binary reconstruction of a %d-byte key: %v, %v", len(longest), got, err)
	}
	if _, err := c.Remove(longest, []uint64{2}); err != nil {
		t.Fatalf("binary remove from a %d-byte key: %v", len(longest), err)
	}
	if got, err := c.Reconstruct(longest, false); err != nil || slices.Contains(got, 2) || !slices.Contains(got, 1) {
		t.Fatalf("binary reconstruction after removing 2: %v, %v", got, err)
	}

	over := longest + "k"
	if code := post(t, ts, "/v1/add", fmt.Sprintf(`{"key":"%s","ids":[1]}`, over), nil); code != http.StatusBadRequest {
		t.Fatalf("HTTP add of a %d-byte key: status %d, want 400", len(over), code)
	}
	for name, call := range map[string]func() error{
		"add":    func() error { _, err := c.Add(wire.AddSet{Key: over, IDs: []uint64{1}}); return err },
		"sample": func() error { _, err := c.Sample(over, 1, wire.SampleOpts{}); return err },
	} {
		var er wire.ErrorResult
		if err := call(); !errors.As(err, &er) || er.Code != wire.ErrCodeBadRequest {
			t.Fatalf("binary %s of a %d-byte key: %v, want a 400", name, len(over), err)
		}
	}
	if keys := s.DB().Keys(); slices.Contains(keys, over) || len(keys) != 3 {
		t.Fatalf("after the refused writes the database holds %d keys", len(keys))
	}
}

// TestBinaryUnknownOpcode: an opcode no binary row serves — 0, which the
// HTTP-only rows of the endpoint table hold and must never match, the
// retired numbers of stats, snapshot and restore and of their replies, and
// one never assigned — gets a 400 error frame that names it and counts as a
// protocol error, and the connection goes on serving.
func TestBinaryUnknownOpcode(t *testing.T) {
	s, addr := newBinaryTestServer(t, Config{})
	conn := dialRaw(t, addr)
	for i, op := range []byte{0, 8, 9, 10, 21, 22, 0xEE} {
		before := s.stats().Wire.ProtocolErrors
		id := uint32(i + 1)
		if err := wire.WriteFrame(conn, op, 0, id, nil); err != nil {
			t.Fatal(err)
		}
		h, body := readReply(t, conn)
		er, err := wire.DecodeErrorResult(body)
		if h.Opcode != wire.OpError || h.RequestID != id || err != nil || er.Code != wire.ErrCodeBadRequest || er.Msg != fmt.Sprintf("unknown opcode %d", op) {
			t.Fatalf("opcode %d: reply opcode %d for request %d, %+v (%v)", op, h.Opcode, h.RequestID, er, err)
		}
		if got := s.stats().Wire.ProtocolErrors; got != before+1 {
			t.Fatalf("opcode %d: protocol_errors went from %d to %d", op, before, got)
		}
	}
	if err := wire.WriteFrame(conn, wire.OpSample, 0, 100, sampleOne); err != nil {
		t.Fatal(err)
	}
	if h, body := readReply(t, conn); h.Opcode != wire.OpSampleResult || h.RequestID != 100 {
		t.Fatalf("a sample after the unknown opcodes: opcode %d for request %d (% x)", h.Opcode, h.RequestID, body)
	}
}

func TestBinaryStreamWithCredits(t *testing.T) {
	s, addr := newBinaryTestServer(t, Config{StreamChunk: 64})
	c := dialTestClient(t, addr)
	var got []uint64
	err := c.SampleStream("plain", 1000, wire.SampleOpts{}, 128, func(ids []uint64) error {
		got = append(got, ids...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The near-uniform drawer can return fewer than asked (false-positive
	// descents yield nothing), so assert membership and rough volume, not
	// exact count.
	if len(got) == 0 {
		t.Fatal("stream returned nothing")
	}
	set, _ := s.DB().Reconstruct("plain", 0, nil)
	member := map[uint64]bool{}
	for _, id := range set {
		member[id] = true
	}
	for _, id := range got {
		if !member[id] {
			t.Fatalf("streamed id %d not a member", id)
		}
	}
}

// TestBinaryStreamCreditStall pins the flow-control contract: a stream
// opened with zero credit draws nothing until the client grants some,
// and the stall is visible in the wire counters.
func TestBinaryStreamCreditStall(t *testing.T) {
	s, addr := newBinaryTestServer(t, Config{StreamChunk: 64})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := wire.SampleReq{Key: "plain", N: 100, Credit: 0}.Encode(nil, true)
	if err := wire.WriteFrame(conn, wire.OpSampleStream, 0, 1, req); err != nil {
		t.Fatal(err)
	}
	// No credit: no chunk may arrive. Give the server a moment to park.
	_ = conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, _, err := wire.ReadFrame(conn, 0); err == nil {
		t.Fatal("got a chunk with zero credit")
	}
	if stalls := s.bin.creditStalls.Load(); stalls == 0 {
		t.Fatal("no credit stall recorded")
	}
	// Grant enough for the whole batch; the stream must now finish.
	if err := wire.WriteFrame(conn, wire.OpCredit, 0, 1, wire.CreditGrant{N: 100}.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		h, _, err := wire.ReadFrame(conn, 0)
		if err != nil {
			t.Fatalf("stream did not finish after grant: %v", err)
		}
		if h.Opcode != wire.OpSampleChunk {
			t.Fatalf("opcode %d mid-stream", h.Opcode)
		}
		if h.Flags&wire.FlagFinal != 0 {
			return
		}
	}
}

// TestBinaryBusyShedding is the admission-control acceptance test: with
// the per-connection window saturated by parked streams, further
// requests get an immediate BUSY frame — the queue never grows — and the
// sheds are visible per endpoint and in the wire totals.
func TestBinaryBusyShedding(t *testing.T) {
	s, addr := newBinaryTestServer(t, Config{ConnWindow: 1, StreamChunk: 64})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Park one stream with zero credit: it occupies the connection's
	// whole in-flight window (ConnWindow=1) without finishing.
	stream := wire.SampleReq{Key: "plain", N: 64, Credit: 0}.Encode(nil, true)
	if err := wire.WriteFrame(conn, wire.OpSampleStream, 0, 1, stream); err != nil {
		t.Fatal(err)
	}
	// Saturated window: the next request must be shed, fast.
	sample := wire.SampleReq{Key: "plain", N: 1}.Encode(nil, false)
	if err := wire.WriteFrame(conn, wire.OpSample, 0, 2, sample); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	h, _, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Opcode != wire.OpBusy || h.RequestID != 2 {
		t.Fatalf("got opcode %d for request %d, want OpBusy for 2", h.Opcode, h.RequestID)
	}
	if s.bin.shed.Load() == 0 {
		t.Fatal("wire shed counter not incremented")
	}
	if shed := s.metrics["bin:sample"].shed.Load(); shed == 0 {
		t.Fatal("per-endpoint shed counter not incremented")
	}
	// Release the stream; the window frees and the same request succeeds.
	// (A grant is dropped unless its stream is registered, which the
	// stream's own goroutine does: wait for it, as the BUSY above only
	// proves the reader has admitted the stream.)
	for deadline := time.Now().Add(2 * time.Second); s.bin.streamsActive.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("stream never started")
		}
	}
	if err := wire.WriteFrame(conn, wire.OpCredit, 0, 1, wire.CreditGrant{N: 64}.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	for {
		h, _, err := wire.ReadFrame(conn, 0)
		if err != nil {
			t.Fatal(err)
		}
		if h.Opcode == wire.OpSampleChunk && h.Flags&wire.FlagFinal != 0 {
			break
		}
	}
	// The slot is given back just after the final chunk is written, so
	// a request sent the instant that chunk arrives may still be shed —
	// retrying on BUSY is the client's side of the contract.
	for id := uint32(3); ; id++ {
		if err := wire.WriteFrame(conn, wire.OpSample, 0, id, sample); err != nil {
			t.Fatal(err)
		}
		h, _, err = wire.ReadFrame(conn, 0)
		if err != nil || (h.Opcode != wire.OpSampleResult && h.Opcode != wire.OpBusy) {
			t.Fatalf("after release: opcode %d, err %v; want OpSampleResult", h.Opcode, err)
		}
		if h.Opcode == wire.OpSampleResult {
			break
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSharedAdmissionAcrossProtocols pins that both listeners draw from
// one global budget: a binary stream holding the only in-flight slot
// causes HTTP to shed with 503, and the slot's release restores service.
func TestSharedAdmissionAcrossProtocols(t *testing.T) {
	s, addr := newBinaryTestServer(t, Config{MaxInFlight: 1, ConnWindow: 8, StreamChunk: 64})
	ts := httptest.NewServer(s)
	defer ts.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	stream := wire.SampleReq{Key: "plain", N: 64, Credit: 0}.Encode(nil, true)
	if err := wire.WriteFrame(conn, wire.OpSampleStream, 0, 1, stream); err != nil {
		t.Fatal(err)
	}
	// Wait until the stream actually occupies the budget.
	deadline := time.Now().Add(2 * time.Second)
	for s.inflight.inUse() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream never acquired the in-flight budget")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP status %d while budget exhausted, want 503", resp.StatusCode)
	}
	// Release and verify recovery.
	if err := wire.WriteFrame(conn, wire.OpCredit, 0, 1, wire.CreditGrant{N: 64}.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		h, _, err := wire.ReadFrame(conn, 0)
		if err != nil {
			t.Fatal(err)
		}
		if h.Flags&wire.FlagFinal != 0 {
			break
		}
	}
	deadline = time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("HTTP still shedding after release: %d", resp.StatusCode)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBinaryShutdownBounded pins the drain contract: idle connections
// close immediately, and a mid-flight stream cannot stretch the drain
// past the context deadline — it is force-closed instead. Nor can a lone
// request, which runs on its connection's reader: parked inside its fsync,
// where closing the socket does not reach, it is waited for while the
// context allows and abandoned when it expires.
func TestBinaryShutdownBounded(t *testing.T) {
	t.Run("stream", func(t *testing.T) {
		s, addr := newBinaryTestServer(t, Config{StreamChunk: 64})
		// One idle connection (a finished request, then nothing).
		idle := dialTestClient(t, addr)
		if _, err := idle.Sample("plain", 1, wire.SampleOpts{}); err != nil {
			t.Fatal(err)
		}
		// One connection parked mid-stream on credit.
		conn := dialRaw(t, addr)
		stream := wire.SampleReq{Key: "plain", N: 1000, Credit: 0}.Encode(nil, true)
		if err := wire.WriteFrame(conn, wire.OpSampleStream, 0, 1, stream); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the stream to start", func() bool { return s.bin.streamsActive.Load() == 1 })

		shutdownCutShort(t, s)
		// Both connections must now be closed server-side: reads fail fast.
		_ = conn.SetReadDeadline(time.Now().Add(1 * time.Second))
		for {
			if _, _, err := wire.ReadFrame(conn, 0); err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					t.Fatal("stream connection still open after bounded drain")
				}
				break
			}
		}
		if got := s.bin.connsActive.Load(); got != 0 {
			t.Fatalf("%d connections still tracked after drain", got)
		}
	})

	// parkedAdd sends a lone add whose fsync is held and returns once its
	// connection's reader is inside it.
	parkedAdd := func(t *testing.T) (s *Server, conn net.Conn, release func()) {
		_, s, store := newDurableTestServer(t, Config{})
		conn = dialRaw(t, serveBinaryForTest(t, s))
		entered, release := parkFsync(t, store)
		add := wire.AddReq{Sets: []wire.AddSet{{Key: "k", IDs: []uint64{1, 2, 3}}}}.Encode(nil)
		if err := wire.WriteFrame(conn, wire.OpAdd, 0, 1, add); err != nil {
			t.Fatal(err)
		}
		<-entered
		if got := s.bin.servedInline.Load(); got != 1 {
			t.Fatalf("served_inline = %d with a lone add in flight, want 1: it is not on its reader", got)
		}
		return s, conn, release
	}
	t.Run("lone add, fsync released", func(t *testing.T) {
		s, conn, release := parkedAdd(t)
		drained := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			drained <- s.ShutdownBinary(ctx)
		}()
		select {
		case err := <-drained:
			t.Fatalf("drain returned %v with a request in flight and its context live", err)
		case <-time.After(50 * time.Millisecond):
		}
		release()
		expectReply(t, conn, wire.OpAckResult, 1)
		if err := <-drained; err != nil {
			t.Fatalf("drain returned %v, want nil: the request finished inside the deadline", err)
		}
	})
	t.Run("lone add, fsync held", func(t *testing.T) {
		s, _, release := parkedAdd(t)
		shutdownCutShort(t, s)
		release()
		waitFor(t, "the abandoned reader to leave", func() bool { return s.bin.connsActive.Load() == 0 })
	})
}

// shutdownCutShort drains s under a 150 ms deadline that something in flight
// is known to outlast: the drain must report the deadline, and not long
// after it.
func shutdownCutShort(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.ShutdownBinary(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain returned %v, want DeadlineExceeded (a request was mid-flight)", err)
	}
	if elapsed := time.Since(start); elapsed > 1*time.Second {
		t.Fatalf("drain took %v, want ≈150ms — the deadline did not bound it", elapsed)
	}
}
