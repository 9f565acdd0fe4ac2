package server

import (
	"fmt"
	"io"
	"math"
	"net"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/setdb"
	"repro/internal/wal"
	"repro/internal/wire"
)

// What runs where on a binary connection (binConn.dispatch): a request that
// arrives alone is served by the connection's reader; a frame of a burst, a
// stream, and anything beside a stream or another request gets a goroutine
// of its own. These tests hold the rule from outside, by the served_inline
// counter and by what a client can see arrive in which order. They depend on
// how goroutines interleave, so CI runs them -race -count 20.

var sampleOne = wire.SampleReq{Key: "plain", N: 1}.Encode(nil, false)

// parkedStream is a sample_stream frame that cannot send a chunk until it is
// granted credit: the request that stays in flight for as long as a test
// needs one.
func parkedStream(id uint32, key string) []byte {
	return wire.AppendFrame(nil, wire.OpSampleStream, 0, id, wire.SampleReq{Key: key, N: 64, Credit: 0}.Encode(nil, true))
}

func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// readReply reads one frame, giving it five seconds to arrive.
func readReply(t *testing.T, conn net.Conn) (wire.Header, []byte) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	h, body, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("reading a reply: %v", err)
	}
	return h, body
}

// expectReply reads one frame and holds it to an opcode and a request id.
func expectReply(t *testing.T, conn net.Conn, op byte, id uint32) wire.Header {
	t.Helper()
	h, body := readReply(t, conn)
	if h.Opcode != op || h.RequestID != id {
		msg := ""
		if er, err := wire.DecodeErrorResult(body); h.Opcode == wire.OpError && err == nil {
			msg = ": " + er.Msg
		}
		t.Fatalf("got opcode %d for request %d%s, want opcode %d for request %d", h.Opcode, h.RequestID, msg, op, id)
	}
	return h
}

// expectSilence fails if a frame arrives within d.
func expectSilence(t *testing.T, conn net.Conn, d time.Duration, why string) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(d))
	if h, _, err := wire.ReadFrame(conn, 0); err == nil {
		t.Fatalf("got opcode %d for request %d, want nothing: %s", h.Opcode, h.RequestID, why)
	}
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// parkFsync makes every fsync of store wait until the returned release is
// called (the test's end calls it too), and reports each fsync that begins
// on entered. A write is acknowledged after its fsync, so an add sent while
// the hook holds is a request parked where closing its connection cannot
// reach it.
func parkFsync(t *testing.T, store *wal.Store) (entered <-chan struct{}, release func()) {
	t.Helper()
	in, gate := make(chan struct{}, 1), make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	store.SetSyncHook(func() error {
		select {
		case in <- struct{}{}:
		default:
		}
		<-gate
		return nil
	})
	// Registered after the store's own Close, so it runs before it: Close
	// takes the mutex the parked write holds.
	t.Cleanup(release)
	return in, release
}

// TestBinaryLoneRequestRunsOnReader: every request of a closed-loop client
// (wire.Client: one outstanding at a time) is served by the connection's
// reader and counted as such on both stats surfaces; a stream never is; and
// of a burst written at once at most the last frame can be, the only one
// that may find itself alone — none when something else is in flight.
func TestBinaryLoneRequestRunsOnReader(t *testing.T) {
	s, addr := newBinaryTestServer(t, Config{StreamChunk: 64})
	admin := httptest.NewServer(s.AdminHandler())
	defer admin.Close()
	c := dialTestClient(t, addr)

	requests := uint64(0)
	for i := 0; i < 5; i++ {
		if _, err := c.Sample("plain", 8, wire.SampleOpts{}); err != nil {
			t.Fatal(err)
		}
		requests++
	}
	if _, err := c.Add(wire.AddSet{Key: "lone", IDs: []uint64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reconstruct("lone", false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Remove("dyn", []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sample("no such key", 1, wire.SampleOpts{}); err == nil {
		t.Fatal("sampling a missing key succeeded")
	}
	requests += 4
	// Each reply above left after its request was counted.
	if st := s.stats(); st.Wire.ServedInline != requests {
		t.Fatalf("wire.served_inline = %d after %d closed-loop requests", st.Wire.ServedInline, requests)
	}
	if _, metrics := get(t, admin.URL+"/metrics"); !strings.Contains(metrics, fmt.Sprintf("\nbst_wire_served_inline_total %d\n", requests)) {
		t.Fatalf("/metrics does not serve bst_wire_served_inline_total %d", requests)
	}

	// A stream has credit frames to take while it runs: never the reader.
	if err := c.SampleStream("plain", 200, wire.SampleOpts{}, 64, func([]uint64) error { return nil }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the stream's slot to come back", func() bool { return s.inflight.inUse() == 0 })
	if got := s.bin.servedInline.Load(); got != requests {
		t.Fatalf("served_inline moved from %d to %d over a stream", requests, got)
	}

	// Eight frames in one Write: all answered; the first seven have bytes
	// behind them in the reader's buffer.
	conn := dialRaw(t, addr)
	var burst []byte
	for id := uint32(1); id <= 8; id++ {
		burst = wire.AppendFrame(burst, wire.OpSample, 0, id, sampleOne)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	answered := map[uint32]bool{}
	for range 8 {
		h, _ := readReply(t, conn)
		if h.Opcode != wire.OpSampleResult || answered[h.RequestID] {
			t.Fatalf("burst: opcode %d for request %d", h.Opcode, h.RequestID)
		}
		answered[h.RequestID] = true
	}
	waitFor(t, "the burst's slots to come back", func() bool { return s.inflight.inUse() == 0 })
	if got := s.bin.servedInline.Load(); got > requests+1 {
		t.Fatalf("served_inline moved from %d to %d over a burst of 8: more than its last frame ran on the reader", requests, got)
	}
	requests = s.bin.servedInline.Load()

	// The same burst behind a parked stream: nothing is alone, nothing inline.
	burst = parkedStream(9, "plain")
	for id := uint32(10); id <= 16; id++ {
		burst = wire.AppendFrame(burst, wire.OpSample, 0, id, sampleOne)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	for range 7 {
		if h, _ := readReply(t, conn); h.Opcode != wire.OpSampleResult {
			t.Fatalf("burst beside a stream: opcode %d for request %d", h.Opcode, h.RequestID)
		}
	}
	if got := s.bin.servedInline.Load(); got != requests {
		t.Fatalf("served_inline moved from %d to %d over a burst beside a parked stream", requests, got)
	}
}

// TestBinaryFramesBesideAStream: a zero-credit stream and a sample written
// in one Write both start — the sample's reply arrives while the stream is
// parked. A frame that then arrives on its own is not alone on its
// connection, so it gets a goroutine (served_inline does not move), and a
// credit grant sent behind it is applied while it is still running: with an
// add parked inside its fsync, the stream's chunks all arrive before the
// add's ack. Credit overtakes because the reader is never inside a request
// while a stream lives.
func TestBinaryFramesBesideAStream(t *testing.T) {
	_, s, store := newDurableTestServer(t, Config{StreamChunk: 64})
	addr := serveBinaryForTest(t, s)
	ids := make([]uint64, 200)
	for i := range ids {
		ids[i] = uint64(i) * 7
	}
	if _, err := dialTestClient(t, addr).Add(wire.AddSet{Key: "k", IDs: ids}); err != nil {
		t.Fatal(err)
	}
	sample := wire.SampleReq{Key: "k", N: 1}.Encode(nil, false)

	conn := dialRaw(t, addr)
	if _, err := conn.Write(wire.AppendFrame(parkedStream(1, "k"), wire.OpSample, 0, 2, sample)); err != nil {
		t.Fatal(err)
	}
	expectReply(t, conn, wire.OpSampleResult, 2)
	waitFor(t, "the stream to park", func() bool { return s.bin.creditStalls.Load() == 1 })
	inline := s.bin.servedInline.Load()

	if err := wire.WriteFrame(conn, wire.OpSample, 0, 3, sample); err != nil {
		t.Fatal(err)
	}
	expectReply(t, conn, wire.OpSampleResult, 3)

	entered, release := parkFsync(t, store)
	add := wire.AddReq{Sets: []wire.AddSet{{Key: "k", IDs: []uint64{5}}}}.Encode(nil)
	if err := wire.WriteFrame(conn, wire.OpAdd, 0, 4, add); err != nil {
		t.Fatal(err)
	}
	<-entered
	if err := wire.WriteFrame(conn, wire.OpCredit, 0, 1, wire.CreditGrant{N: 64}.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	for {
		if h := expectReply(t, conn, wire.OpSampleChunk, 1); h.Flags&wire.FlagFinal != 0 {
			break
		}
	}
	if got := s.bin.servedInline.Load(); got != inline {
		t.Fatalf("served_inline moved from %d to %d beside a live stream", inline, got)
	}
	release()
	expectReply(t, conn, wire.OpAckResult, 4)
}

// TestBinaryBurstPastTheWindowIsShed: ConnWindow streams and four samples in
// one Write. The streams fill the window, each sample is refused by the
// reader as it is read — four BUSY frames, in order, and nothing else —
// whichever way admitted requests are started.
func TestBinaryBurstPastTheWindowIsShed(t *testing.T) {
	const window = 4
	s, addr := newBinaryTestServer(t, Config{ConnWindow: window, StreamChunk: 64})
	conn := dialRaw(t, addr)
	var burst []byte
	for id := uint32(1); id <= window; id++ {
		burst = append(burst, parkedStream(id, "plain")...)
	}
	for id := uint32(window + 1); id <= window+4; id++ {
		burst = wire.AppendFrame(burst, wire.OpSample, 0, id, sampleOne)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	for id := uint32(window + 1); id <= window+4; id++ {
		expectReply(t, conn, wire.OpBusy, id)
	}
	expectSilence(t, conn, 100*time.Millisecond, "every stream is out of credit and every sample was shed")
	if shed, inline := s.bin.shed.Load(), s.bin.servedInline.Load(); shed != 4 || inline != 0 {
		t.Fatalf("%d shed, %d served inline; want 4 and 0", shed, inline)
	}
	if got := s.bin.streamsActive.Load(); got != window {
		t.Fatalf("%d streams active, want %d", got, window)
	}
}

// TestBinaryStalledClientCannotParkReader: a lone request's reply is written
// by the reader, to a client that has stopped reading. The write gives up
// at StreamWriteTimeout, the request ends as aborted, and the reader is back
// at its socket: the next frame is served.
func TestBinaryStalledClientCannotParkReader(t *testing.T) {
	_, db := newTestServer(t, Config{})
	s := New(db, Config{StreamWriteTimeout: 50 * time.Millisecond})
	ln := newPipeListener()
	serveBinaryOn(t, s, ln)
	conn := ln.dial() // a pipe: the reply cannot leave until it is read
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.OpSample, 0, 1, sampleOne); err != nil {
		t.Fatal(err)
	}
	m := s.metrics["bin:sample"]
	waitFor(t, "the unread reply's write to time out", func() bool { return m.requests.Load() == 1 })
	if errs, inline := m.errors.Load(), s.bin.servedInline.Load(); errs != 1 || inline != 1 {
		t.Fatalf("%d failed, %d served inline; want the one request, aborted on its reader", errs, inline)
	}
	if err := wire.WriteFrame(conn, wire.OpSample, 0, 2, sampleOne); err != nil {
		t.Fatal(err)
	}
	expectReply(t, conn, wire.OpSampleResult, 2)
}

// TestBinaryTracingCostPerRequest is TestTracingCostPerRequest for the
// binary listener: a traced sample costs exactly one allocation more than an
// untraced one, the trace itself, which keeps the connection's ordinal and
// the frame's id as numbers and spells "bin-3-17" only for a log line. One
// closed-loop connection over a pipe, the client's own allocations the same
// on both sides.
func TestBinaryTracingCostPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector: allocation counts are not exact")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pools mid-count
	_, db := newTestServer(t, Config{})
	perRequest := func(cfg Config) (allocs, bytes float64) {
		ln := newPipeListener()
		serveBinaryOn(t, New(db, cfg), ln)
		conn := ln.dial()
		defer conn.Close()
		frame := wire.AppendFrame(nil, wire.OpSample, 0, 17, sampleOne)
		serve := func() {
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			if h, _, err := wire.ReadFrame(conn, 0); err != nil || h.Opcode != wire.OpSampleResult {
				t.Fatalf("opcode %d, err %v", h.Opcode, err)
			}
		}
		serve() // warms the pools
		const runs = 2000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			serve()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	offAllocs, offBytes := perRequest(Config{TraceDisabled: true})
	onAllocs, onBytes := perRequest(Config{})
	if d := math.Round(onAllocs - offAllocs); d != 1 || onBytes-offBytes > 72 {
		t.Fatalf("tracing costs %+.2f allocations and %+.0f B a binary request (off %.2f / %.0f B, on %.2f / %.0f B), want +1 and at most +72 B",
			onAllocs-offAllocs, onBytes-offBytes, offAllocs, offBytes, onAllocs, onBytes)
	}
}

// mixedShapeServer serves, on loopback, a database of the benchmark's
// mixed_wal shape (M = 10⁵, planned for 1 000 ids at accuracy 0.9, pruned)
// holding one counting-backend key of 500 ids.
func mixedShapeServer(b *testing.B) string {
	b.Helper()
	opts, err := setdb.PlanOptions(0.9, 1_000, 100_000, 3)
	if err != nil {
		b.Fatal(err)
	}
	opts.Pruned = true
	opts.Seed = 7
	db, err := setdb.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]uint64, 500)
	for i := range ids {
		ids[i] = uint64(i) * 199 % 100_000
	}
	if err := db.AddDynamic("k", ids...); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	serveBinaryOn(b, New(db, Config{}), ln)
	return ln.Addr().String()
}

// BenchmarkBinaryLoopback times the binary transport around one single-id
// sample of a counting key on the mixed_wal shape, over loopback TCP, both
// ways a request can be started: lone is wire.Client's round trip, served by
// the connection's reader; burst8 is eight frames in one Write and their
// eight replies, each frame on a goroutine of its own (an op is the burst).
// Run with -benchmem.
func BenchmarkBinaryLoopback(b *testing.B) {
	b.Run("lone", func(b *testing.B) {
		c, err := wire.Dial(mixedShapeServer(b))
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Sample("k", 1, wire.SampleOpts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("burst8", func(b *testing.B) {
		conn, err := net.Dial("tcp", mixedShapeServer(b))
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		var burst []byte
		for id := uint32(1); id <= 8; id++ {
			burst = wire.AppendFrame(burst, wire.OpSample, 0, id, wire.SampleReq{Key: "k", N: 1}.Encode(nil, false))
		}
		br := newBufReader(conn)
		var hdr [wire.HeaderSize]byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := conn.Write(burst); err != nil {
				b.Fatal(err)
			}
			for range 8 {
				if _, err := io.ReadFull(br, hdr[:]); err != nil {
					b.Fatal(err)
				}
				h, err := wire.DecodeHeader(hdr[:])
				if err != nil || h.Opcode != wire.OpSampleResult {
					b.Fatalf("opcode %d, err %v", h.Opcode, err)
				}
				if _, err := br.Discard(int(h.Length)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
