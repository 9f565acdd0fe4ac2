// Package server is the network serving layer over setdb.DB (command
// bstserved): it makes the lock-free sampling and copy-on-write write
// paths reachable by many remote clients at once, over two protocols
// that share everything but their framing.
//
// The package is three layers:
//
//   - ops.go — the operation layer. Every operation (sample, sample
//     stream, reconstruct, intersection, add, remove, snapshot, restore,
//     stats) is one *Server method from a typed request to a typed
//     result; it pins one database and one filter version for the whole
//     request and owns every limit check and error message.
//   - the pipeline, written once for both listeners: the endpoint table
//     below, admit (admission.go: connection window → global budget →
//     write budget), and finish (metrics, stage histograms, access and
//     slow-request log).
//   - two codecs that decode, call the operation and encode: HTTP/JSON
//     (this file) and the binary wire protocol (binary.go, internal/wire).
//     Both build a reply in the one pooled buffer of reply.go and send it
//     in one Write, but for a reconstruction's ids, which are rendered once
//     per table and kept beside it.
//
// HTTP endpoints (JSON bodies unless noted):
//
//	POST /v1/sample        draw n samples from any key (single, batch, uniform; "stream": NDJSON)
//	POST /v1/reconstruct   reconstruct a stored set
//	POST /v1/intersection  estimate |A ∩ B| for two stored sets
//	POST /v1/add           insert ids ("dynamic" is the kind a new key gets: a removable set; multi-key batches group-commit)
//	POST /v1/remove        remove ids from a removable set (all-or-nothing)
//	GET  /v1/stats         key/epoch/version-counter introspection + per-endpoint metrics
//	GET  /v1/snapshot      download a live restore bundle (binary body; works with or without a WAL)
//	POST /v1/snapshot      trigger an on-disk snapshot (requires a durability layer)
//	POST /v1/restore       replace the database with an uploaded bundle (binary body)
//
// The binary listener (ServeBinary) serves the same operations as the
// opcodes of internal/wire; a sample stream there is a sequence of chunk
// frames paced by client-granted credit, counted in ids sent.
//
// The serving layer adds nothing to the concurrency story — it doesn't
// need to: every request is decoded into a value, the database call is
// lock-free (reads) or serialized on the database's writer lock (writes),
// and the per-endpoint metrics are atomics. Request limits (body size,
// batch size) bound the work a single client can demand.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/setdb"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Default request limits, shared with the bstserved flag definitions so
// the -help text can never drift from the handler behavior.
const (
	DefaultMaxBatch        = 100_000
	DefaultMaxStreamBatch  = 10_000_000
	DefaultMaxBodyBytes    = 1 << 20
	DefaultMaxBatchSets    = 1_000
	DefaultMaxInFlight     = 1024
	DefaultConnWindow      = 32
	DefaultMaxWrites       = 128
	DefaultMaxRestoreBytes = int64(1) << 30
)

// Config bounds a Server. The zero value gets sensible
// defaults from withDefaults.
type Config struct {
	// MaxBatch caps the n of a buffered sample request, the ids of an
	// add/remove request, and the (estimated) size of a reconstructed
	// set (default DefaultMaxBatch). Oversized requests get 413.
	MaxBatch int
	// MaxBatchSets caps the number of sets in one batch add request
	// (default DefaultMaxBatchSets). The id count alone does not bound a
	// batch's work: every new key allocates a full-size filter and the
	// whole group commit holds the database's writer mutex while building,
	// so the key count needs its own, much tighter cap.
	MaxBatchSets int
	// MaxStreamBatch caps the n of a streaming sample request (default
	// DefaultMaxStreamBatch). Streaming holds only one chunk in memory,
	// so it affords far larger batches than the buffered mode; this
	// bounds the total draw work of one request, and StreamWriteTimeout
	// bounds how long a slow reader can stretch it.
	MaxStreamBatch int
	// MaxBodyBytes caps a request body (default DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// StreamChunk is the draw granularity of the NDJSON streaming mode
	// (default 4096): samples are drawn and flushed a chunk at a time, so
	// a huge batch never buffers fully in server memory.
	StreamChunk int
	// StreamWriteTimeout bounds each chunk write of a streaming response
	// (default 30s): a client reading too slowly fails its stream instead
	// of pinning a handler goroutine for the server's lifetime.
	StreamWriteTimeout time.Duration
	// MaxInFlight is the admission-control budget: the number of requests
	// (HTTP and binary combined) the server will work on at once (default
	// DefaultMaxInFlight). Arrivals beyond it are shed immediately — 503
	// over HTTP, a BUSY frame over the binary protocol — instead of
	// queueing, so overload degrades into fast rejections rather than
	// growing latency for everyone.
	MaxInFlight int
	// MaxWrites sub-budgets the write endpoints (add/remove, both
	// protocols; default DefaultMaxWrites): each write holds the writer
	// mutex through its group-commit build, so a write flood would
	// otherwise convoy behind the commit path while still consuming the
	// whole global budget. Exhaustion sheds the write, not the readers.
	MaxWrites int
	// ConnWindow is the per-connection in-flight window of the binary
	// protocol (default DefaultConnWindow): one connection may have at
	// most this many requests being processed (a stream counts as one
	// until its final chunk). The window is the protocol's connection-
	// level backpressure — a single pipelining client saturates its own
	// window and gets BUSY frames, not the whole server's budget.
	ConnWindow int
	// Durability, when set, is the write-ahead-log store behind the
	// database: every mutating request (add/remove, both protocols) is
	// applied through it so the write is logged before it is
	// acknowledged, POST /v1/snapshot triggers its snapshots, and its
	// health shows up under "durability" in /v1/stats. Nil serves the
	// database purely in memory, exactly as before.
	Durability *wal.Store
	// MaxRestoreBytes caps a POST /v1/restore body (default
	// DefaultMaxRestoreBytes). Restore bundles are full database images,
	// so they get their own, much larger cap than MaxBodyBytes.
	MaxRestoreBytes int64
	// Logger receives the server's structured log lines (request access
	// logs at debug, slow requests and internal failures at warn/error).
	// Nil discards everything.
	Logger *slog.Logger
	// SlowRequest is the duration above which a finished request is
	// logged at warn with its stage breakdown. Zero disables slow-request
	// logging (there is no sane universal default: a 50ms stream chunk
	// cadence and a 50ms point lookup mean different things).
	SlowRequest time.Duration
	// TraceDisabled turns off request tracing: no request IDs, no
	// per-stage timings, no trace in the context. Per-endpoint counters
	// and latency histograms stay on. The obs benchmark compares a server
	// in this mode against the default to price the tracing overhead.
	TraceDisabled bool
}

// withDefaults normalizes unset limits. Zero and negative values both
// fall back to the default: a limit of -1 would otherwise reject every
// request, so healing beats bricking the whole API over a typo.
func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.MaxBatchSets <= 0 {
		c.MaxBatchSets = DefaultMaxBatchSets
	}
	if c.MaxStreamBatch <= 0 {
		c.MaxStreamBatch = DefaultMaxStreamBatch
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.StreamChunk <= 0 {
		c.StreamChunk = 4096
	}
	if c.StreamWriteTimeout <= 0 {
		c.StreamWriteTimeout = 30 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	if c.MaxWrites <= 0 {
		c.MaxWrites = DefaultMaxWrites
	}
	if c.ConnWindow <= 0 {
		c.ConnWindow = DefaultConnWindow
	}
	if c.MaxRestoreBytes <= 0 {
		c.MaxRestoreBytes = DefaultMaxRestoreBytes
	}
	return c
}

// Server serves one setdb.DB. It implements http.Handler for the
// HTTP/JSON protocol — lifecycle (listening, graceful shutdown) belongs
// to the caller's http.Server — and serves the binary protocol through
// ServeBinary/ShutdownBinary.
type Server struct {
	// db is atomically swappable so /v1/restore can replace the whole
	// database underneath in-flight readers: each operation loads the
	// pointer once and finishes against a consistent (possibly
	// just-superseded) database.
	db      atomic.Pointer[setdb.DB]
	cfg     Config
	mux     *http.ServeMux
	start   time.Time
	metrics map[string]*endpointMetrics

	// Admission gates, shared by the HTTP and binary listeners: inflight
	// is the global work budget, writeGate the tighter write sub-budget.
	// Both are non-blocking — a failed acquire sheds the request.
	inflight  *gate
	writeGate *gate

	// bin is the binary-protocol listener state (nil until ServeBinary).
	bin binState

	// log is cfg.Logger normalized to never-nil (NopLogger).
	log *slog.Logger

	// ready gates /readyz on the admin surface: false until the embedder
	// calls SetReady(true) (after WAL replay and listener setup), flipped
	// back to false at drain so load balancers stop routing new work
	// before in-flight requests finish.
	ready atomic.Bool
}

// New builds a Server over db. When cfg.Durability is set its recovered
// database takes precedence — the store owns the authoritative state.
func New(db *setdb.DB, cfg Config) *Server {
	s := &Server{
		cfg:     cfg.withDefaults(),
		mux:     http.NewServeMux(),
		start:   time.Now(),
		metrics: map[string]*endpointMetrics{},
	}
	if s.log = s.cfg.Logger; s.log == nil {
		s.log = obs.NopLogger()
	}
	if s.cfg.Durability != nil {
		db = s.cfg.Durability.DB()
	}
	s.db.Store(db)
	s.inflight = newGate(s.cfg.MaxInFlight)
	s.writeGate = newGate(s.cfg.MaxWrites)
	for i := range endpoints {
		ep := &endpoints[i]
		s.metrics[ep.bin] = &endpointMetrics{}
		if ep.path != "" {
			m := &endpointMetrics{}
			s.metrics[ep.path] = m
			s.mux.HandleFunc(ep.path, func(w http.ResponseWriter, r *http.Request) { s.serveHTTP(ep, m, w, r) })
		}
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// DB returns the currently served database.
func (s *Server) DB() *setdb.DB { return s.db.Load() }

// SetReady flips the /readyz state on the admin surface. The embedder
// calls SetReady(true) once recovery is done and the listeners are up,
// and SetReady(false) when drain begins so load balancers steer new
// traffic away while in-flight requests finish.
func (s *Server) SetReady(ready bool) {
	if s.ready.Swap(ready) != ready {
		s.log.Info("readiness changed", "ready", ready)
	}
}

// Ready reports the current /readyz state.
func (s *Server) Ready() bool { return s.ready.Load() }

// errorBody is the JSON error envelope of every non-2xx response.
// RequestID echoes the request's trace ID (when tracing is on) so a
// client-side error report can be joined against the server's logs.
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// The two codec shapes: each decodes its protocol's request, calls the
// operation (ops.go) and encodes the result. A returned error is written
// to the client and counted by the listener, never by the codec.
type (
	httpCodec func(s *Server, w http.ResponseWriter, r *http.Request) error
	binCodec  func(bc *binConn, tr *obs.Trace, h wire.Header, body []byte) error
)

// endpoint is one row of the endpoint table: an operation's name under
// each protocol — the HTTP route and the "bin:" key double as the
// metrics `endpoint` label values — its codecs, and whether it takes
// the write sub-budget.
type endpoint struct {
	path      string // "" when not served over HTTP
	get, post httpCodec
	bin       string
	opcode    byte
	frame     binCodec
	isWrite   bool
}

// endpoints is the one table both listeners are built from: New
// registers the HTTP routes and the metrics of both protocols from it,
// the binary reader looks opcodes up in it.
var endpoints = []endpoint{
	{path: "/v1/sample", post: (*Server).httpSample, bin: "bin:sample", opcode: wire.OpSample, frame: (*binConn).binSample},
	// Over HTTP a stream is /v1/sample with "stream": true.
	{bin: "bin:sample_stream", opcode: wire.OpSampleStream, frame: (*binConn).binSample},
	{path: "/v1/reconstruct", post: jsonOp((*Server).reconstruct), bin: "bin:reconstruct", opcode: wire.OpReconstruct, frame: (*binConn).binReconstruct},
	{path: "/v1/intersection", post: jsonOp((*Server).intersection), bin: "bin:intersection", opcode: wire.OpIntersection, frame: (*binConn).binIntersection},
	{path: "/v1/add", post: jsonOp((*Server).add), bin: "bin:add", opcode: wire.OpAdd, frame: (*binConn).binAdd, isWrite: true},
	{path: "/v1/remove", post: jsonOp((*Server).remove), bin: "bin:remove", opcode: wire.OpRemove, frame: (*binConn).binRemove, isWrite: true},
	{path: "/v1/stats", get: (*Server).httpStats, bin: "bin:stats", opcode: wire.OpStats, frame: (*binConn).binStats},
	// Snapshotting holds the writer mutex only to copy the key map (it
	// pins a read view), so it rides the global budget only.
	{path: "/v1/snapshot", get: (*Server).httpSnapshotDownload, post: (*Server).httpSnapshot, bin: "bin:snapshot", opcode: wire.OpSnapshot, frame: (*binConn).binSnapshot},
	{path: "/v1/restore", post: (*Server).httpRestore, bin: "bin:restore", opcode: wire.OpRestore, frame: (*binConn).binRestore, isWrite: true},
}

// codecFor picks the codec serving an HTTP method; nil means 405 with
// the returned Allow value.
func (ep *endpoint) codecFor(method string) (codec httpCodec, allow string) {
	switch {
	case method == http.MethodGet && ep.get != nil:
		return ep.get, ""
	case method == http.MethodPost && ep.post != nil:
		return ep.post, ""
	case ep.post == nil:
		return nil, http.MethodGet
	case ep.get == nil:
		return nil, http.MethodPost
	}
	return nil, http.MethodGet + ", " + http.MethodPost
}

// serveHTTP runs one HTTP request through the pipeline: trace, admit,
// codec, error response, finish.
func (s *Server) serveHTTP(ep *endpoint, m *endpointMetrics, w http.ResponseWriter, r *http.Request) {
	// Tracing first, so even a shed response carries a request ID the
	// client can quote back. The ID is taken from X-Request-ID when the
	// caller sent a well-formed one (propagation across hops), freshly
	// generated otherwise, and always echoed on the response.
	var tr *obs.Trace
	if !s.cfg.TraceDisabled {
		rid := obs.CleanRequestID(r.Header.Get("X-Request-ID"))
		if rid == "" {
			rid = obs.NewRequestID()
		}
		tr = obs.NewTrace(rid)
		w.Header().Set("X-Request-ID", rid)
		r = r.WithContext(obs.WithTrace(r.Context(), tr))
	}
	// Admission next, before reading the body: a shed request should
	// cost the server nothing but the rejection write. 503 (not 429)
	// because the condition is server saturation, not client quota.
	arrived := time.Now()
	if refused := s.admit(ep, nil); refused != "" {
		s.shed(m, ep.path, "http", tr, refused)
		w.Header().Set("Retry-After", "1")
		// A shed is counted as a shed whether or not the rejection arrives.
		_ = writeJSON(w, r, http.StatusServiceUnavailable,
			errorBody{Error: refused + " exhausted, request shed", RequestID: tr.ID()})
		return
	}
	defer s.release(ep, nil)
	tr.Add(obs.StageAdmission, time.Since(arrived))
	start := time.Now()
	var err error
	if codec, allow := ep.codecFor(r.Method); codec == nil {
		w.Header().Set("Allow", allow)
		err = errf(http.StatusMethodNotAllowed, "use %s %s", allow, ep.path)
	} else {
		err = codec(s, w, r)
	}
	if err != nil && !errors.Is(err, errStreamAborted) {
		// The request already counts as failed; a lost error reply adds nothing.
		_ = writeJSON(w, r, statusFor(err), errorBody{Error: err.Error(), RequestID: tr.ID()})
	}
	s.finish(m, ep.path, "http", tr, start, err)
}

// shed records one admission rejection: counted per endpoint, logged at
// debug — sheds are expected under deliberate overload and already
// counted, so they must not be able to flood the log at info.
func (s *Server) shed(m *endpointMetrics, endpoint, proto string, tr *obs.Trace, refused string) {
	m.observeShed()
	s.log.Debug("request shed", "endpoint", endpoint, "proto", proto,
		"request_id", tr.ID(), "cause", refused)
}

// finish closes the books on one served request, for both listeners:
// the endpoint's counters and latency histogram, the stage histograms
// when it was traced, and the access-log line — debug normally, warn
// with the stage breakdown when it ran slower than cfg.SlowRequest, so
// production logs surface outliers without paying for a line per
// request.
func (s *Server) finish(m *endpointMetrics, endpoint, proto string, tr *obs.Trace, start time.Time, err error) {
	d := time.Since(start)
	m.observe(d, err != nil)
	if tr != nil {
		tr.FillExecute(d)
		m.observeStages(tr)
	}
	slow := s.cfg.SlowRequest > 0 && d >= s.cfg.SlowRequest
	if !slow && !s.log.Enabled(context.Background(), slog.LevelDebug) {
		return
	}
	attrs := make([]any, 0, 12)
	attrs = append(attrs, "endpoint", endpoint, "proto", proto,
		"request_id", tr.ID(), "duration_us", float64(d.Nanoseconds())/1e3)
	if errors.Is(err, errStreamAborted) {
		attrs = append(attrs, "error", "stream aborted")
	} else if err != nil {
		attrs = append(attrs, "error", err.Error())
	}
	attrs = append(attrs, tr.StageAttr())
	if slow {
		s.log.Warn("slow request", attrs...)
		return
	}
	s.log.Debug("request", attrs...)
}

// decode reads one JSON request body under the configured size limit.
// Unknown fields are rejected: a typo'd mode flag ("dynamc") silently
// selecting the wrong storage kind would be irreversible once the key
// is created, so strictness beats leniency here.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) error {
	tr := obs.TraceFrom(r.Context())
	t0 := time.Now()
	defer func() { tr.Add(obs.StageDecode, time.Since(t0)) }()
	return decodeJSON(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), dst)
}

// decodeJSON is the one strict JSON request decoder.
func decodeJSON(body io.Reader, dst any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return errf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
		}
		return errf(http.StatusBadRequest, "malformed JSON: %v", err)
	}
	// Same strictness for trailing content: a concatenated second JSON
	// value would otherwise be silently dropped.
	if dec.More() {
		return errf(http.StatusBadRequest, "trailing data after the JSON request body")
	}
	return nil
}

// writeJSON writes one JSON response, charging the marshal+write to the
// request's encode stage (r carries the trace; a nil trace costs two
// clock reads and nothing else). The document is built in a pooled reply
// buffer (reply.go) — all of it but a reconstruction's kept ids, written
// after it as they are — and sent behind its Content-Length, so a reply that
// never reached the client is known here: a write's failure comes back as
// errStreamAborted, as a failed frame write does on the binary listener.
func writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) error {
	tr := obs.TraceFrom(r.Context())
	t0 := time.Now()
	rb := newReply()
	tail, err := rb.appendJSON(v) // on a failure nothing is sent yet: serveHTTP answers with a 500
	if err == nil {
		h := w.Header()
		h["Content-Type"] = jsonContentType
		h.Set("Content-Length", strconv.Itoa(len(rb.b)+len(tail)))
		w.WriteHeader(status)
		_, werr := w.Write(rb.b)
		if werr == nil && len(tail) > 0 {
			_, werr = w.Write(tail)
		}
		if werr != nil {
			err = fmt.Errorf("%w: %v", errStreamAborted, werr)
		}
	}
	rb.release()
	tr.Add(obs.StageEncode, time.Since(t0))
	return err
}

// jsonContentType is every JSON reply's Content-Type value, shared: the
// header map takes the slice as it is, where Set would allocate one a reply
// (the Content-Length beside it is the one a reply does allocate). Nothing
// writes through a header value, and an Add to it reallocates.
var jsonContentType = []string{"application/json"}

// respond writes an operation's result as the 200 JSON document, or
// passes its error up to serveHTTP.
func respond(w http.ResponseWriter, r *http.Request, resp any, err error) error {
	if err != nil {
		return err
	}
	return writeJSON(w, r, http.StatusOK, resp)
}

// jsonOp is the HTTP codec of every operation whose request and result
// are plain JSON documents: strict decode, call, respond.
func jsonOp[Req, Resp any](op func(*Server, Req) (Resp, error)) httpCodec {
	return func(s *Server, w http.ResponseWriter, r *http.Request) error {
		var req Req
		if err := s.decode(w, r, &req); err != nil {
			return err
		}
		resp, err := op(s, req)
		return respond(w, r, resp, err)
	}
}

func (s *Server) httpStats(w http.ResponseWriter, r *http.Request) error {
	return respond(w, r, s.stats(), nil)
}

func (s *Server) httpSnapshot(w http.ResponseWriter, r *http.Request) error {
	resp, err := s.snapshot()
	return respond(w, r, resp, err)
}

// httpSnapshotDownload streams a live restore bundle of the current
// database. It needs no WAL: the bundle is produced from a pinned
// in-memory view, so this doubles as the backup/replication primitive
// for purely in-memory servers.
func (s *Server) httpSnapshotDownload(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="setdb.snap"`)
	if _, err := s.DB().SnapshotView().WriteBundleTo(w); err != nil {
		// Headers are long gone mid-stream; the aborted connection is
		// the only signal the client needs.
		return fmt.Errorf("%w: snapshot download: %v", errStreamAborted, err)
	}
	return nil
}

// httpRestore bounds the upload by MaxRestoreBytes, not MaxBodyBytes:
// restore bundles are full database images.
func (s *Server) httpRestore(w http.ResponseWriter, r *http.Request) error {
	resp, err := s.restore(http.MaxBytesReader(w, r.Body, s.cfg.MaxRestoreBytes))
	return respond(w, r, resp, err)
}

// StreamLine is the decoded form of one NDJSON record of a streamed
// sample response: exactly one of the three shapes below applies per
// line — an id line {"id":N}, an in-band error {"error":"..."}, or the
// {"done":true} terminator. Clients unmarshal each line into this; the
// server appends the three shapes by hand (reply.go), so that a sampled id
// of 0 is still {"id":0}.
type StreamLine struct {
	ID    uint64 `json:"id"`
	Error string `json:"error"`
	Done  bool   `json:"done"`
}

// httpSample serves /v1/sample: one JSON document, or — "stream": true —
// the NDJSON framing of sampleStream: one id per line, flushed chunk by
// chunk, a final {"done":true} terminator. The 200 is committed by the
// first chunk; an error after it is reported in-band as an {"error":...}
// line. A client that goes away (write failure or context cancellation)
// stops the drawing at the next chunk rather than burning tree descents
// into a dead connection.
func (s *Server) httpSample(w http.ResponseWriter, r *http.Request) error {
	var req SampleRequest
	if err := s.decode(w, r, &req); err != nil {
		return err
	}
	if !req.Stream {
		resp, err := s.sample(req)
		return respond(w, r, resp, err)
	}
	ctx := r.Context()
	tr := obs.TraceFrom(ctx)
	rc := http.NewResponseController(w)
	// Clear the per-chunk deadline on the way out so it never bleeds
	// into the next request on a kept-alive connection.
	defer rc.SetWriteDeadline(time.Time{})
	rb := newReply()
	defer rb.release()
	committed := false
	err := s.sampleStream(req, nil, func(ids []uint64, final bool) error {
		if ctx.Err() != nil {
			return errStreamAborted
		}
		if !committed {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			committed = true
		}
		// Each chunk write gets a fresh deadline: a client reading too
		// slowly fails its own stream instead of pinning this goroutine
		// (and its draw work) for the server's lifetime.
		_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.StreamWriteTimeout))
		t0 := time.Now()
		defer func() { tr.Add(obs.StageEncode, time.Since(t0)) }()
		// A chunk's lines, and the terminator after the last, in one Write.
		rb.b = rb.b[:0]
		rb.appendIDLines(ids)
		if final {
			rb.appendDoneLine()
		}
		if _, err := w.Write(rb.b); err != nil {
			return errStreamAborted // client went away
		}
		_ = rc.Flush() // a failed flush shows as the next write's error
		return nil
	})
	if err != nil && committed && !errors.Is(err, errStreamAborted) {
		rb.b = rb.b[:0]
		rb.appendErrorLine(err.Error())
		_, _ = w.Write(rb.b) // the stream ends as aborted either way
		return errStreamAborted
	}
	return err
}
