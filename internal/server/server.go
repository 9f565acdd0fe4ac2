// Package server is the network serving layer over setdb.DB: an
// HTTP/JSON API (command bstserved) that makes the lock-free sampling
// and copy-on-write write paths reachable by many remote clients at
// once.
//
// Endpoints (all JSON; POST bodies, GET for stats):
//
//	POST /v1/sample        draw n samples (single, batch, uniform, dynamic; NDJSON streaming)
//	POST /v1/reconstruct   reconstruct a stored set
//	POST /v1/intersection  estimate |A ∩ B| for two stored sets
//	POST /v1/add           insert ids (plain copy-on-write or dynamic counting set; multi-key batches group-commit)
//	POST /v1/remove        remove ids from a dynamic set (all-or-nothing)
//	GET  /v1/stats         shard/epoch/calibration introspection + per-endpoint metrics
//
// The handler layer adds nothing to the concurrency story — it doesn't
// need to: every request body is decoded into a value, the database call
// is lock-free (reads) or shard-serialized (writes), and the per-endpoint
// metrics are atomics. Request limits (body size, batch size) bound the
// work a single client can demand.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/setdb"
	"repro/internal/wal"
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

// Config bounds and seeds a Server. The zero value gets sensible
// defaults from withDefaults.
type Config struct {
	// MaxBatch caps the n of a buffered sample request, the ids of an
	// add/remove request, and the (estimated) size of a reconstructed
	// set (default DefaultMaxBatch). Oversized requests get 413.
	MaxBatch int
	// MaxBatchSets caps the number of sets in one batch add request
	// (default DefaultMaxBatchSets). The id count alone does not bound a
	// batch's work: every new key allocates a full-size filter and the
	// whole group commit holds its shards' write mutexes while building,
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
	// protocols; default DefaultMaxWrites): each write holds shard
	// mutexes through its group-commit build, so a write flood would
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
	// Seed makes uniform-mode sampling deterministic-ish for tests (each
	// uniform request's rng derives from it); the plain/dynamic batch
	// paths seed their workers internally. 0 seeds from the clock.
	Seed uint64
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
	if c.Seed == 0 {
		c.Seed = uint64(time.Now().UnixNano())
	}
	return c
}

// Server serves one setdb.DB over HTTP. It implements http.Handler;
// lifecycle (listening, graceful shutdown) belongs to the caller's
// http.Server.
type Server struct {
	// db is atomically swappable so /v1/restore can replace the whole
	// database underneath in-flight readers: each request loads the
	// pointer once and finishes against a consistent (possibly
	// just-superseded) database.
	db      atomic.Pointer[setdb.DB]
	cfg     Config
	mux     *http.ServeMux
	start   time.Time
	metrics map[string]*endpointMetrics

	// samplers caches one shared exactly-uniform sampler per key:
	// setdb.Sampler is lock-free on draws and follows its key across
	// copy-on-write Adds, so all requests for a key share calibration.
	// Entries invalidated by an (in-process) db.Delete are evicted
	// lazily — on the next uniform draw or /v1/stats call — which is
	// bounded for the HTTP surface (it exposes no delete); embedders
	// that churn keys should poll stats or manage samplers themselves.
	samplers sync.Map // string → *setdb.Sampler

	// rngs pools per-request rand sources; seq derives each new source's
	// seed so pooled misses never collide.
	rngs sync.Pool
	seq  atomic.Uint64

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
	s.rngs.New = func() any {
		n := s.seq.Add(1)
		return rand.New(rand.NewSource(int64(s.cfg.Seed ^ n*0x9E3779B97F4A7C15)))
	}
	s.inflight = newGate(s.cfg.MaxInFlight)
	s.writeGate = newGate(s.cfg.MaxWrites)
	s.route("/v1/sample", http.MethodPost, s.handleSample, false)
	s.route("/v1/reconstruct", http.MethodPost, s.handleReconstruct, false)
	s.route("/v1/intersection", http.MethodPost, s.handleIntersection, false)
	s.route("/v1/add", http.MethodPost, s.handleAdd, true)
	s.route("/v1/remove", http.MethodPost, s.handleRemove, true)
	s.route("/v1/stats", http.MethodGet, s.handleStats, false)
	s.routeMulti("/v1/snapshot", map[string]handlerFunc{
		http.MethodGet:  s.handleSnapshotGet,
		http.MethodPost: s.handleSnapshotPost,
	}, false)
	s.route("/v1/restore", http.MethodPost, s.handleRestore, true)
	for _, op := range binEndpoints {
		s.metrics[op] = &endpointMetrics{}
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

// apiError carries an HTTP status with a message. Handlers return it for
// conditions they classify themselves; bare errors are classified by
// statusFor.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func errf(status int, format string, args ...any) *apiError {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

// statusFor maps database errors onto HTTP statuses: absent keys are
// 404, semantic conflicts (plain/dynamic clash, remove of a non-member,
// invalidated sampler) are 409, known caller mistakes are 400, and
// anything unrecognized is a genuine server-side failure — 500, so
// monitoring never blames the client for an internal bug.
func statusFor(err error) int {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae.status
	case errors.Is(err, setdb.ErrNoSet):
		return http.StatusNotFound
	case errors.Is(err, setdb.ErrKeyClash),
		errors.Is(err, setdb.ErrSamplerInvalid),
		errors.Is(err, bloom.ErrNotMember):
		return http.StatusConflict
	case errors.Is(err, setdb.ErrOutOfRange):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// errorBody is the JSON error envelope of every non-2xx response.
// RequestID echoes the request's trace ID (when tracing is on) so a
// client-side error report can be joined against the server's logs.
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// handlerFunc is the endpoint handler shape route/routeMulti register.
type handlerFunc func(http.ResponseWriter, *http.Request) error

// route registers one endpoint with method gating, admission control
// and metrics. isWrite endpoints additionally pass the write sub-budget.
func (s *Server) route(path, method string, h handlerFunc, isWrite bool) {
	s.routeMulti(path, map[string]handlerFunc{method: h}, isWrite)
}

// routeMulti registers one endpoint serving several methods (e.g.
// /v1/snapshot: GET downloads, POST triggers) behind shared admission
// control and metrics.
func (s *Server) routeMulti(path string, handlers map[string]handlerFunc, isWrite bool) {
	m := &endpointMetrics{}
	s.metrics[path] = m
	allow := ""
	for _, method := range []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete} {
		if _, ok := handlers[method]; ok {
			if allow != "" {
				allow += ", "
			}
			allow += method
		}
	}
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
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
		admit := time.Now()
		if !s.inflight.tryAcquire() {
			m.observeShed()
			w.Header().Set("Retry-After", "1")
			writeJSON(w, r, http.StatusServiceUnavailable,
				errorBody{Error: "server at capacity, request shed", RequestID: tr.ID()})
			s.logShed(path, "http", tr, "global budget")
			return
		}
		defer s.inflight.release()
		if isWrite {
			if !s.writeGate.tryAcquire() {
				m.observeShed()
				w.Header().Set("Retry-After", "1")
				writeJSON(w, r, http.StatusServiceUnavailable,
					errorBody{Error: "write path at capacity, request shed", RequestID: tr.ID()})
				s.logShed(path, "http", tr, "write budget")
				return
			}
			defer s.writeGate.release()
		}
		tr.Add(obs.StageAdmission, time.Since(admit))
		start := time.Now()
		var err error
		if h, ok := handlers[r.Method]; !ok {
			w.Header().Set("Allow", allow)
			err = errf(http.StatusMethodNotAllowed, "use %s %s", allow, path)
		} else {
			err = h(w, r)
		}
		if err != nil && !errors.Is(err, errStreamAborted) {
			writeJSON(w, r, statusFor(err), errorBody{Error: err.Error(), RequestID: tr.ID()})
		}
		d := time.Since(start)
		m.observe(d, err != nil)
		if tr != nil {
			tr.FillExecute(d)
			m.observeStages(tr)
		}
		s.logRequest(path, "http", tr, d, err)
	})
}

// logShed records one admission rejection at debug — sheds are expected
// under deliberate overload and already counted, so they must not be
// able to flood the log at info.
func (s *Server) logShed(endpoint, proto string, tr *obs.Trace, cause string) {
	s.log.Debug("request shed", "endpoint", endpoint, "proto", proto,
		"request_id", tr.ID(), "cause", cause)
}

// logRequest emits the access-log line for one finished request: debug
// normally, warn with the stage breakdown when it ran slower than
// cfg.SlowRequest, so production logs surface outliers without paying
// for a line per request.
func (s *Server) logRequest(endpoint, proto string, tr *obs.Trace, d time.Duration, err error) {
	slow := s.cfg.SlowRequest > 0 && d >= s.cfg.SlowRequest
	if !slow && !s.log.Enabled(nil, slog.LevelDebug) {
		return
	}
	attrs := make([]any, 0, 12)
	attrs = append(attrs, "endpoint", endpoint, "proto", proto,
		"request_id", tr.ID(), "duration_us", float64(d.Nanoseconds())/1e3)
	if err != nil && !errors.Is(err, errStreamAborted) {
		attrs = append(attrs, "error", err.Error())
	} else if errors.Is(err, errStreamAborted) {
		attrs = append(attrs, "error", "stream aborted")
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
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
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
// clock reads and nothing else).
func writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	tr := obs.TraceFrom(r.Context())
	t0 := time.Now()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // header already sent; nothing useful left on failure
	tr.Add(obs.StageEncode, time.Since(t0))
}

// rng hands out a pooled rand source for one request.
func (s *Server) rng() *rand.Rand { return s.rngs.Get().(*rand.Rand) }

func (s *Server) putRNG(r *rand.Rand) { s.rngs.Put(r) }

// SampleRequest asks for n samples from the set under Key.
//
// Exactly one storage/sampling mode applies: plain sets use the
// near-uniform BSTSample batch path (parallel workers), Dynamic selects
// the counting-set snapshot path, Uniform the rejection-corrected
// exactly-uniform sampler (plain sets only; calibration is shared and
// shows up in /v1/stats). Stream switches the response to NDJSON — one
// {"id":N} object per line, drawn and flushed chunk-wise — for batches
// too large to buffer.
type SampleRequest struct {
	Key     string `json:"key"`
	N       int    `json:"n,omitempty"` // default 1
	Workers int    `json:"workers,omitempty"`
	Dynamic bool   `json:"dynamic,omitempty"`
	Uniform bool   `json:"uniform,omitempty"`
	Stream  bool   `json:"stream,omitempty"`
}

// SampleResponse carries the drawn ids. Returned can be less than
// Requested: a BSTSample descent that ends on a false-positive path
// yields no sample (the near-uniform modes), and the uniform sampler
// stops at its rejection bound.
type SampleResponse struct {
	Key       string   `json:"key"`
	Requested int      `json:"requested"`
	Returned  int      `json:"returned"`
	IDs       []uint64 `json:"ids"`
}

// StreamLine is the decoded form of one NDJSON record of a streamed
// sample response: exactly one of the three shapes below applies per
// line — an id line {"id":N}, an in-band error {"error":"..."}, or the
// {"done":true} terminator. Clients unmarshal each line into this.
type StreamLine struct {
	ID    uint64 `json:"id"`
	Error string `json:"error"`
	Done  bool   `json:"done"`
}

// The three NDJSON record shapes used for *encoding*. They are distinct
// types (rather than StreamLine with omitempty) so that a sampled id of
// 0 still encodes as {"id":0}.
type (
	streamIDLine struct {
		ID uint64 `json:"id"`
	}
	streamErrorLine struct {
		Error string `json:"error"`
	}
	streamDoneLine struct {
		Done bool `json:"done"`
	}
)

// errStreamAborted marks a stream that ended before its terminator — a
// draw failure reported in-band, a client disconnect, a cancelled
// context. route() must count the request as failed (so truncated
// streams are visible in /v1/stats) but not write a second response.
var errStreamAborted = errors.New("server: stream aborted mid-response")

func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) error {
	var req SampleRequest
	if err := s.decode(w, r, &req); err != nil {
		return err
	}
	if req.Key == "" {
		return errf(http.StatusBadRequest, "missing key")
	}
	if req.N == 0 {
		req.N = 1
	}
	if req.N < 0 {
		return errf(http.StatusBadRequest, "negative n %d", req.N)
	}
	if req.Stream {
		if req.N > s.cfg.MaxStreamBatch {
			return errf(http.StatusRequestEntityTooLarge, "n %d exceeds the streaming batch limit %d", req.N, s.cfg.MaxStreamBatch)
		}
	} else if req.N > s.cfg.MaxBatch {
		return errf(http.StatusRequestEntityTooLarge, "n %d exceeds the batch limit %d (stream mode affords up to %d)", req.N, s.cfg.MaxBatch, s.cfg.MaxStreamBatch)
	}
	if req.Uniform && req.Dynamic {
		return errf(http.StatusBadRequest, "uniform sampling serves plain sets only")
	}
	draw, err := s.chunkDrawer(req)
	if err != nil {
		return err
	}
	// Only the uniform mode consumes a per-request rng; the batch paths
	// draw with setdb's pooled workers.
	var rng *rand.Rand
	if req.Uniform {
		rng = s.rng()
		defer s.putRNG(rng)
	}
	if req.Stream {
		return s.streamSamples(w, r, req, draw, rng)
	}
	ids, err := draw(req.N, rng)
	if err != nil {
		return err
	}
	writeJSON(w, r, http.StatusOK, SampleResponse{
		Key: req.Key, Requested: req.N, Returned: len(ids), IDs: ids,
	})
	return nil
}

// chunkDrawer resolves the request's sampling mode to a draw function.
// The plain and dynamic modes pin the key's currently published filter
// version here, once: a batch spread over many chunks (streaming) is
// drawn entirely from that one point-in-time version, never interleaving
// set versions mid-response no matter how writers race it. The uniform
// mode deliberately does the opposite — the shared sampler follows its
// key across copy-on-write swaps, which is its documented contract.
func (s *Server) chunkDrawer(req SampleRequest) (func(n int, rng *rand.Rand) ([]uint64, error), error) {
	// Clamp the client-supplied worker count: it is a hint, not a lever
	// to make the server spawn 100k goroutines for one request.
	workers := req.Workers
	if workers < 0 {
		workers = 0
	}
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}
	switch {
	case req.Uniform:
		// Resolve the shared sampler once per request. A Delete/re-Add
		// racing the request surfaces as ErrSamplerInvalid from the draw
		// (409, or an in-band stream error) — one response never silently
		// splices ids from two key lifetimes.
		smp, err := s.uniformSampler(req.Key)
		if err != nil {
			return nil, err
		}
		return func(n int, rng *rand.Rand) ([]uint64, error) {
			return smp.SampleN(n, rng, nil)
		}, nil
	case req.Dynamic:
		snap, err := s.DB().SnapshotDynamic(req.Key)
		if err != nil {
			return nil, err
		}
		return func(n int, _ *rand.Rand) ([]uint64, error) {
			return s.DB().SampleManyFrom(snap, n, workers, nil)
		}, nil
	default:
		f := s.DB().Filter(req.Key)
		if f == nil {
			return nil, fmt.Errorf("%w %q", setdb.ErrNoSet, req.Key)
		}
		return func(n int, _ *rand.Rand) ([]uint64, error) {
			return s.DB().SampleManyFrom(f, n, workers, nil)
		}, nil
	}
}

// uniformSampler returns the shared per-key uniform sampler, building it
// on first use. A cached sampler invalidated by Delete/re-Add is dropped
// and rebuilt against the key's current lifetime.
func (s *Server) uniformSampler(key string) (*setdb.Sampler, error) {
	for attempt := 0; attempt < 2; attempt++ {
		v, ok := s.samplers.Load(key)
		if !ok {
			smp, err := s.DB().UniformSampler(key)
			if err != nil {
				return nil, err
			}
			v, _ = s.samplers.LoadOrStore(key, smp)
		}
		smp := v.(*setdb.Sampler)
		if smp.Valid() {
			return smp, nil
		}
		// Evict only the sampler we observed stale: a plain Delete could
		// race-discard a valid replacement (and its calibration) that
		// another request already stored.
		s.samplers.CompareAndDelete(key, v)
	}
	// Two cache rounds both raced Delete/re-Adds of this key; serve the
	// request from a fresh sampler bound to the current lifetime rather
	// than trusting the churning cache.
	return s.DB().UniformSampler(key)
}

// streamSamples writes the NDJSON response: chunk-wise draws, one id per
// line, a final {"done":true} terminator. An error after the 200 header
// is reported in-band as an {"error":...} line. A client that goes away
// (write failure or context cancellation) stops the drawing immediately
// rather than burning tree descents into a dead connection.
func (s *Server) streamSamples(w http.ResponseWriter, r *http.Request, req SampleRequest, draw func(int, *rand.Rand) ([]uint64, error), rng *rand.Rand) error {
	// Draw the first chunk before committing to a 200, so key/mode errors
	// still get a proper status.
	first := req.N
	if first > s.cfg.StreamChunk {
		first = s.cfg.StreamChunk
	}
	ids, err := draw(first, rng)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	ctx := r.Context()
	rc := http.NewResponseController(w)
	// Clear the per-chunk deadline on the way out so it never bleeds
	// into the next request on a kept-alive connection.
	defer rc.SetWriteDeadline(time.Time{})
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	tr := obs.TraceFrom(ctx)
	emit := func(ids []uint64) error {
		// Each chunk write gets a fresh deadline: a client reading too
		// slowly fails its own stream instead of pinning this goroutine
		// (and its draw work) for the server's lifetime.
		_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.StreamWriteTimeout))
		t0 := time.Now()
		for _, id := range ids {
			if err := enc.Encode(streamIDLine{ID: id}); err != nil {
				tr.Add(obs.StageEncode, time.Since(t0))
				return err
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		tr.Add(obs.StageEncode, time.Since(t0))
		return nil
	}
	if err := emit(ids); err != nil {
		return errStreamAborted // client went away
	}
	for drawn := first; drawn < req.N; {
		if ctx.Err() != nil {
			return errStreamAborted
		}
		chunk := req.N - drawn
		if chunk > s.cfg.StreamChunk {
			chunk = s.cfg.StreamChunk
		}
		ids, err := draw(chunk, rng)
		if err != nil {
			_ = enc.Encode(streamErrorLine{Error: err.Error()})
			return errStreamAborted
		}
		if err := emit(ids); err != nil {
			return errStreamAborted
		}
		drawn += chunk
	}
	if enc.Encode(streamDoneLine{Done: true}) != nil {
		return errStreamAborted // terminator never reached the client
	}
	return nil
}

// ReconstructRequest asks for the full contents of a stored set.
type ReconstructRequest struct {
	Key     string `json:"key"`
	Dynamic bool   `json:"dynamic,omitempty"`
}

// ReconstructResponse returns the reconstructed ids in ascending order.
type ReconstructResponse struct {
	Key   string   `json:"key"`
	Count int      `json:"count"`
	IDs   []uint64 `json:"ids"`
}

func (s *Server) handleReconstruct(w http.ResponseWriter, r *http.Request) error {
	var req ReconstructRequest
	if err := s.decode(w, r, &req); err != nil {
		return err
	}
	if req.Key == "" {
		return errf(http.StatusBadRequest, "missing key")
	}
	ids, err := s.reconstructIDs(req.Key, req.Dynamic)
	if err != nil {
		return err
	}
	writeJSON(w, r, http.StatusOK, ReconstructResponse{Key: req.Key, Count: len(ids), IDs: ids})
	return nil
}

// reconstructIDs is the shared reconstruction path of both protocols:
// pin the published filter version, bound the response (a reconstruction
// buffers the whole set in memory, so it obeys the same cap as a
// buffered sample batch), reconstruct.
func (s *Server) reconstructIDs(key string, dynamic bool) ([]uint64, error) {
	var f *bloom.Filter
	if dynamic {
		snap, err := s.DB().SnapshotDynamic(key)
		if err != nil {
			return nil, err
		}
		f = snap
	} else if f = s.DB().Filter(key); f == nil {
		return nil, fmt.Errorf("%w %q", setdb.ErrNoSet, key)
	}
	if est := f.EstimateCardinality(); est > float64(s.cfg.MaxBatch) {
		return nil, errf(http.StatusRequestEntityTooLarge,
			"set %q holds an estimated %.0f elements, above the %d reconstruction limit", key, est, s.cfg.MaxBatch)
	}
	ids, err := s.DB().Tree().Reconstruct(f, core.PruneByEstimate, nil)
	if err != nil {
		return nil, err
	}
	if ids == nil {
		ids = []uint64{}
	}
	return ids, nil
}

// IntersectionRequest names the two stored sets to compare.
type IntersectionRequest struct {
	KeyA string `json:"key_a"`
	KeyB string `json:"key_b"`
}

// IntersectionResponse carries the |A ∩ B| estimate (§4 estimator).
type IntersectionResponse struct {
	KeyA     string  `json:"key_a"`
	KeyB     string  `json:"key_b"`
	Estimate float64 `json:"estimate"`
}

func (s *Server) handleIntersection(w http.ResponseWriter, r *http.Request) error {
	var req IntersectionRequest
	if err := s.decode(w, r, &req); err != nil {
		return err
	}
	if req.KeyA == "" || req.KeyB == "" {
		return errf(http.StatusBadRequest, "missing key_a or key_b")
	}
	est, err := s.DB().IntersectionEstimate(req.KeyA, req.KeyB)
	if err != nil {
		return err
	}
	writeJSON(w, r, http.StatusOK, IntersectionResponse{KeyA: req.KeyA, KeyB: req.KeyB, Estimate: est})
	return nil
}

// AddRequest inserts ids, creating sets on first use. Two shapes apply:
//
//   - single-key: Key + IDs (+ Dynamic) — one copy-on-write publish.
//   - batch: Sets — any number of key/ids pairs applied through the
//     database's group-commit path (setdb.ApplyBatch), which folds the
//     whole batch into one snapshot publish per touched shard, so heavy
//     ingest pays one publish per batch rather than one per key. The
//     batch is all-or-nothing: any clash or out-of-range id applies
//     nothing.
//
// Exactly one shape must be used per request. Dynamic selects the
// counting-filter (deletable) storage kind; the kind is fixed at
// creation and mixing kinds on one key is a 409.
type AddRequest struct {
	Key     string   `json:"key,omitempty"`
	IDs     []uint64 `json:"ids,omitempty"`
	Dynamic bool     `json:"dynamic,omitempty"`
	Sets    []AddSet `json:"sets,omitempty"`
}

// AddSet is one key's pending writes within a batch AddRequest.
type AddSet struct {
	Key     string   `json:"key"`
	IDs     []uint64 `json:"ids"`
	Dynamic bool     `json:"dynamic,omitempty"`
}

// AddResponse acknowledges a write. Keys is the number of keys written
// (batch shape only).
type AddResponse struct {
	Key   string `json:"key,omitempty"`
	Added int    `json:"added"`
	Keys  int    `json:"keys,omitempty"`
}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) error {
	var req AddRequest
	if err := s.decode(w, r, &req); err != nil {
		return err
	}
	if len(req.Sets) > 0 {
		return s.addBatch(w, r, req)
	}
	if req.Key == "" {
		return errf(http.StatusBadRequest, "missing key (or sets for a batch)")
	}
	if len(req.IDs) > s.cfg.MaxBatch {
		return errf(http.StatusRequestEntityTooLarge, "%d ids exceed the batch limit %d", len(req.IDs), s.cfg.MaxBatch)
	}
	if err := s.applyWrites([]setdb.Write{{Key: req.Key, IDs: req.IDs, Dynamic: req.Dynamic}}); err != nil {
		return err
	}
	writeJSON(w, r, http.StatusOK, AddResponse{Key: req.Key, Added: len(req.IDs)})
	return nil
}

// addBatch serves the batch shape of /v1/add over the group-commit path.
// Two limits bound the work: MaxBatch caps the total id count across the
// batch (as for the single-key shape), and MaxBatchSets caps the key
// count — each set costs a full-size filter allocation and lengthens the
// locked group-commit build regardless of how few ids it carries.
func (s *Server) addBatch(w http.ResponseWriter, r *http.Request, req AddRequest) error {
	if req.Key != "" || len(req.IDs) > 0 || req.Dynamic {
		return errf(http.StatusBadRequest, "use either key/ids or sets, not both")
	}
	if len(req.Sets) > s.cfg.MaxBatchSets {
		return errf(http.StatusRequestEntityTooLarge, "%d sets exceed the batch limit %d", len(req.Sets), s.cfg.MaxBatchSets)
	}
	total := 0
	writes := make([]setdb.Write, len(req.Sets))
	for i, set := range req.Sets {
		if set.Key == "" {
			return errf(http.StatusBadRequest, "sets[%d]: missing key", i)
		}
		total += len(set.IDs)
		writes[i] = setdb.Write{Key: set.Key, IDs: set.IDs, Dynamic: set.Dynamic}
	}
	if total > s.cfg.MaxBatch {
		return errf(http.StatusRequestEntityTooLarge, "%d ids exceed the batch limit %d", total, s.cfg.MaxBatch)
	}
	if err := s.applyWrites(writes); err != nil {
		return err
	}
	writeJSON(w, r, http.StatusOK, AddResponse{Added: total, Keys: len(req.Sets)})
	return nil
}

// RemoveRequest removes one insertion of each id from the dynamic set
// under Key. The batch is all-or-nothing: a single non-member id fails
// the whole request (409) and publishes nothing.
type RemoveRequest struct {
	Key string   `json:"key"`
	IDs []uint64 `json:"ids"`
}

// RemoveResponse acknowledges a removal.
type RemoveResponse struct {
	Key     string `json:"key"`
	Removed int    `json:"removed"`
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) error {
	var req RemoveRequest
	if err := s.decode(w, r, &req); err != nil {
		return err
	}
	if req.Key == "" {
		return errf(http.StatusBadRequest, "missing key")
	}
	if len(req.IDs) > s.cfg.MaxBatch {
		return errf(http.StatusRequestEntityTooLarge, "%d ids exceed the batch limit %d", len(req.IDs), s.cfg.MaxBatch)
	}
	if err := s.applyWrites([]setdb.Write{{Key: req.Key, IDs: req.IDs, Dynamic: true, Remove: true}}); err != nil {
		return err
	}
	writeJSON(w, r, http.StatusOK, RemoveResponse{Key: req.Key, Removed: len(req.IDs)})
	return nil
}

// DBStats mirrors setdb.DBStats with JSON tags; per-shard occupancy is
// summarized to occupied/min/max so the payload stays small at 64 shards.
type DBStats struct {
	Sets           int `json:"sets"`
	DynamicSets    int `json:"dynamic_sets"`
	Shards         int `json:"shards"`
	OccupiedShards int `json:"occupied_shards"`
	MaxShardKeys   int `json:"max_shard_keys"`
	// Chunk occupancy and write-amplification observability: every write
	// copies one chunk of its shard's chunked key map (plus the chunk
	// table), so mean_bytes_copied_per_write is the live amplification
	// figure, and occupied_chunks/max_chunk_keys show how evenly the
	// copy units are loaded. Chunk tables are adaptive — each shard map
	// grows from 1 chunk toward max_chunks_per_shard with occupancy — so
	// total_chunks tracks how far the layout has fanned out.
	// state_publishes < state_writes means group commit (batch /v1/add)
	// is coalescing writes into shared publishes.
	MaxChunksPerShard       int     `json:"max_chunks_per_shard"`
	TotalChunks             int     `json:"total_chunks"`
	OccupiedChunks          int     `json:"occupied_chunks"`
	MaxChunkKeys            int     `json:"max_chunk_keys"`
	StateWrites             uint64  `json:"state_writes"`
	StatePublishes          uint64  `json:"state_publishes"`
	StateBytesCopied        uint64  `json:"state_bytes_copied"`
	MeanBytesCopiedPerWrite float64 `json:"mean_bytes_copied_per_write"`
	SampleDrawsLost         uint64  `json:"sample_draws_lost"` // batch draws that ended on a false-positive path: Σ requested − returned
	Generations             uint64  `json:"generations"`
	TreeNodes               uint64  `json:"tree_nodes"`
	TreeDepth               int     `json:"tree_depth"`
	TreePruned              bool    `json:"tree_pruned"`
	TreeMemoryBytes         uint64  `json:"tree_memory_bytes"`
	GrowthEpoch             uint64  `json:"growth_epoch"`
	SubtreeEpochs           uint64  `json:"subtree_epochs_active"` // stripes with ≥1 completed epoch
	// Backend is the dynamic-set membership backend descriptor: configured
	// kind plus realized entries, memory, bits/entry and (cuckoo) load
	// factor. setdb.BackendStats carries its own JSON tags.
	Backend setdb.BackendStats `json:"backend"`
}

// SamplerStats is the calibration view of one cached uniform sampler.
type SamplerStats struct {
	Attempts     uint64  `json:"attempts"`
	Accepted     uint64  `json:"accepted"`
	Clamped      uint64  `json:"clamped"`
	Retargets    uint64  `json:"retargets"`
	SafetyFactor float64 `json:"safety_factor"`
	MaxAttempts  int     `json:"max_attempts"`
}

// OptionsStats echoes the database profile.
type OptionsStats struct {
	Namespace uint64 `json:"namespace"`
	Bits      uint64 `json:"bits"`
	K         int    `json:"k"`
	HashKind  string `json:"hash_kind"`
	TreeDepth int    `json:"tree_depth"`
	Pruned    bool   `json:"pruned"`
}

// WireStats is the binary-listener and admission-control view within
// /v1/stats: connection counts, frame traffic, stream flow control and
// shed totals. InFlight/WritesInFlight are point-in-time gate
// occupancies; the rest are lifetime counters.
type WireStats struct {
	ConnsActive    int64  `json:"conns_active"`
	ConnsTotal     uint64 `json:"conns_total"`
	FramesIn       uint64 `json:"frames_in"`
	FramesOut      uint64 `json:"frames_out"`
	StreamsActive  int64  `json:"streams_active"`
	CreditStalls   uint64 `json:"credit_stalls"` // stream pauses waiting for client credit
	ProtocolErrors uint64 `json:"protocol_errors"`
	Shed           uint64 `json:"shed"` // BUSY frames sent (admission control)
	InFlight       int    `json:"in_flight"`
	MaxInFlight    int    `json:"max_in_flight"`
	WritesInFlight int    `json:"writes_in_flight"`
	MaxWrites      int    `json:"max_writes"`
	ConnWindow     int    `json:"conn_window"`
}

// StatsResponse is the full /v1/stats payload.
type StatsResponse struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Options       OptionsStats             `json:"options"`
	DB            DBStats                  `json:"db"`
	Wire          WireStats                `json:"wire"`
	Durability    *wal.Stats               `json:"durability,omitempty"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	Samplers      map[string]SamplerStats  `json:"samplers,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, r, http.StatusOK, s.statsResponse())
	return nil
}

// statsResponse assembles the stats document served by both GET
// /v1/stats and the binary OpStats — one schema, two framings.
func (s *Server) statsResponse() StatsResponse {
	st := s.DB().Stats()
	// One clock read: the QPS denominators below must agree with the
	// uptime field they ship with.
	uptime := time.Since(s.start)
	resp := StatsResponse{
		UptimeSeconds: uptime.Seconds(),
		DB: DBStats{
			Sets:                    st.Sets,
			DynamicSets:             st.DynamicSets,
			Shards:                  len(st.Shards),
			MaxChunksPerShard:       st.MaxChunksPerShard,
			TotalChunks:             st.TotalChunks,
			StateWrites:             st.StateWrites,
			StatePublishes:          st.StatePublishes,
			StateBytesCopied:        st.StateBytesCopied,
			MeanBytesCopiedPerWrite: st.MeanBytesCopiedPerWrite(),
			SampleDrawsLost:         st.SampleDrawsLost,
			Generations:             st.Generations,
			TreeNodes:               st.TreeNodes,
			TreeDepth:               st.TreeDepth,
			TreePruned:              st.TreePruned,
			TreeMemoryBytes:         st.TreeMemoryBytes,
			GrowthEpoch:             st.GrowthEpoch,
			Backend:                 st.Backend,
		},
		Endpoints: map[string]EndpointStats{},
	}
	opts := s.DB().Options()
	resp.Options = OptionsStats{
		Namespace: opts.Namespace,
		Bits:      opts.Bits,
		K:         opts.K,
		HashKind:  string(opts.HashKind),
		TreeDepth: opts.TreeDepth,
		Pruned:    opts.Pruned,
	}
	for i := range st.Shards {
		keys := st.Shards[i].Sets + st.Shards[i].Dynamic
		if keys > 0 {
			resp.DB.OccupiedShards++
		}
		if keys > resp.DB.MaxShardKeys {
			resp.DB.MaxShardKeys = keys
		}
		resp.DB.OccupiedChunks += st.Shards[i].OccupiedChunks
		if st.Shards[i].MaxChunkKeys > resp.DB.MaxChunkKeys {
			resp.DB.MaxChunkKeys = st.Shards[i].MaxChunkKeys
		}
	}
	for _, e := range st.SubtreeEpochs {
		if e > 0 {
			resp.DB.SubtreeEpochs++
		}
	}
	resp.Wire = WireStats{
		ConnsActive:    s.bin.connsActive.Load(),
		ConnsTotal:     s.bin.connsTotal.Load(),
		FramesIn:       s.bin.framesIn.Load(),
		FramesOut:      s.bin.framesOut.Load(),
		StreamsActive:  s.bin.streamsActive.Load(),
		CreditStalls:   s.bin.creditStalls.Load(),
		ProtocolErrors: s.bin.protoErrors.Load(),
		Shed:           s.bin.shed.Load(),
		InFlight:       s.inflight.inUse(),
		MaxInFlight:    s.cfg.MaxInFlight,
		WritesInFlight: s.writeGate.inUse(),
		MaxWrites:      s.cfg.MaxWrites,
		ConnWindow:     s.cfg.ConnWindow,
	}
	if d := s.cfg.Durability; d != nil {
		ds := d.Stats()
		resp.Durability = &ds
	}
	for path, m := range s.metrics {
		resp.Endpoints[path] = m.snapshot(uptime)
	}
	s.samplers.Range(func(k, v any) bool {
		smp := v.(*setdb.Sampler)
		if !smp.Valid() {
			// The key was deleted (or deleted and re-created) since this
			// sampler was cached: evict it instead of reporting
			// calibration for a dead set. CompareAndDelete so a valid
			// replacement stored meanwhile is left alone.
			s.samplers.CompareAndDelete(k, v)
			return true
		}
		us := smp.Stats()
		if resp.Samplers == nil {
			resp.Samplers = map[string]SamplerStats{}
		}
		resp.Samplers[k.(string)] = SamplerStats{
			Attempts:     us.Attempts,
			Accepted:     us.Accepted,
			Clamped:      us.Clamped,
			Retargets:    us.Retargets,
			SafetyFactor: smp.SafetyFactor(),
			MaxAttempts:  smp.MaxAttempts(),
		}
		return true
	})
	return resp
}
