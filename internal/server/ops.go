package server

// The operation layer: every request the server answers, written once
// as a plain *Server method from a typed request to a typed result.
// Both codecs (server.go: HTTP/JSON, binary.go: wire frames) decode
// into these request types, call the method, and encode what it
// returns; neither re-checks a limit or words an error. Each operation
// loads the served database exactly once, so a /v1/restore landing
// mid-request never splices two databases into one response.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/bloom"
	"repro/internal/setdb"
	"repro/internal/wal"
)

// apiError carries an HTTP status with a message. Operations return it
// for conditions they classify themselves; bare errors are classified by
// statusFor.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func errf(status int, format string, args ...any) *apiError {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

var (
	errMissingKey = errf(http.StatusBadRequest, "missing key")
	// errStreamAborted marks a response that ended before its terminator —
	// a client disconnect, a cancelled context, a failed frame write, an
	// error already reported in-band. The request counts as failed (so
	// truncated streams are visible in /v1/stats) but no further response
	// is written.
	errStreamAborted = errors.New("server: stream aborted mid-response")
	// errStreamStarved marks a stream whose client stopped granting credit
	// for a whole StreamWriteTimeout.
	errStreamStarved = errf(http.StatusRequestTimeout, "stream starved of credit")
)

// statusFor maps errors onto HTTP statuses — and, the numbers being
// shared, onto wire error codes: absent keys are 404, semantic conflicts
// (plain/dynamic clash, remove of a non-member) are 409, known caller
// mistakes (an id outside the namespace) are 400, and anything unrecognized
// is a genuine server-side failure — 500, so monitoring never blames the
// client for an internal bug.
func statusFor(err error) int {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae.status
	case errors.Is(err, setdb.ErrNoSet):
		return http.StatusNotFound
	case errors.Is(err, setdb.ErrKeyClash),
		errors.Is(err, bloom.ErrNotMember):
		return http.StatusConflict
	case errors.Is(err, setdb.ErrOutOfRange),
		errors.Is(err, setdb.ErrKeyTooLong):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// pinned returns the currently published filter version of key on db,
// whatever kind of set the key holds. Everything a request does afterwards
// runs against this one point-in-time version, no matter how writers race
// it.
func pinned(db *setdb.DB, key string) (*bloom.Filter, error) {
	if key == "" {
		return nil, errMissingKey
	}
	f := db.Filter(key)
	if f == nil {
		return nil, fmt.Errorf("%w %q", setdb.ErrNoSet, key)
	}
	return f, nil
}

// SampleRequest asks for n samples from the set under Key.
//
// Two sampling modes, both serving every key: the default draws from the
// pinned version as it stands — BSTSample descents until the version has
// served a scan's worth of them, exactly uniform picks from its packed
// positives after, all on the request's goroutine — and Uniform draws
// exactly uniformly from the version's first draw, paying for the version's
// scan there and then if nobody has yet. Either way the request is drawn
// whole from the version of the set published when it arrived. Stream
// switches the response to chunks — NDJSON lines over HTTP, credit-gated
// frames on the wire — drawn and sent a chunk at a time, for batches too
// large to buffer.
type SampleRequest struct {
	Key string `json:"key"`
	N   int    `json:"n,omitempty"` // default 1
	// Deprecated: accepted and ignored — a request draws on its own
	// goroutine. Decoded so that an old client's body is not refused.
	Workers int `json:"workers,omitempty"`
	// Deprecated: accepted and ignored — the key says what kind of set it
	// holds. To be dropped with bench/'s use of it.
	Dynamic bool `json:"dynamic,omitempty"`
	Uniform bool `json:"uniform,omitempty"`
	Stream  bool `json:"stream,omitempty"`
}

// SampleResponse carries the drawn ids. Returned can be less than
// Requested: a BSTSample descent that ends on a false-positive path
// yields no sample, and a version that answers for no id of the tree's
// leaves has nothing to pick (Returned is then 0, in either mode).
type SampleResponse struct {
	Key       string   `json:"key"`
	Requested int      `json:"requested"`
	Returned  int      `json:"returned"`
	IDs       []uint64 `json:"ids"`
}

// pin validates a sample request (defaulting req.N to 1) and resolves
// its sampling mode to a draw function. Both modes pin the key's currently
// published filter version here, once: a batch spread over many chunks
// (streaming) is drawn entirely from that one point-in-time version of
// that one database, never interleaving set versions mid-response no
// matter how writers, a Delete/re-Add of the key or a restore race it.
func (s *Server) pin(req *SampleRequest) (draw func(n int) ([]uint64, error), err error) {
	if req.N == 0 {
		req.N = 1
	}
	switch {
	case req.Key == "":
		return nil, errMissingKey
	case req.N < 0:
		return nil, errf(http.StatusBadRequest, "negative n %d", req.N)
	case req.Stream && req.N > s.cfg.MaxStreamBatch:
		return nil, errf(http.StatusRequestEntityTooLarge, "n %d exceeds the streaming batch limit %d", req.N, s.cfg.MaxStreamBatch)
	case !req.Stream && req.N > s.cfg.MaxBatch:
		return nil, errf(http.StatusRequestEntityTooLarge, "n %d exceeds the batch limit %d (stream mode affords up to %d)", req.N, s.cfg.MaxBatch, s.cfg.MaxStreamBatch)
	}
	db := s.DB()
	f, err := pinned(db, req.Key)
	if err != nil {
		return nil, err
	}
	if req.Uniform {
		return func(n int) ([]uint64, error) {
			return db.SampleExactFrom(f, n)
		}, nil
	}
	return func(n int) ([]uint64, error) {
		return db.SampleManyFrom(f, n, 0, nil)
	}, nil
}

// sample serves a buffered sample request: the whole batch in one draw.
func (s *Server) sample(req SampleRequest) (SampleResponse, error) {
	draw, err := s.pin(&req)
	if err != nil {
		return SampleResponse{}, err
	}
	ids, err := draw(req.N)
	return SampleResponse{Key: req.Key, Requested: req.N, Returned: len(ids), IDs: ids}, err
}

// sampleStream serves a streaming sample request, the one chunk loop
// under both framings: take(want) → draw → emit(ids, final). st is the
// stream's credit window on the wire and nil over HTTP, where take is
// the identity and the reader's pace is enforced by emit's write
// deadline instead. Nothing reaches the client before the first emit, so
// an error up to there (bad request, unknown key, failed first draw)
// still gets a proper status from the codec.
func (s *Server) sampleStream(req SampleRequest, st *binStream, emit func(ids []uint64, final bool) error) error {
	draw, err := s.pin(&req)
	if err != nil {
		return err
	}
	for drawn := 0; drawn < req.N; {
		n, err := st.take(min(req.N-drawn, s.cfg.StreamChunk), s.cfg.StreamWriteTimeout, &s.bin.creditStalls)
		if err != nil {
			return err
		}
		ids, err := draw(n)
		if err != nil {
			return err
		}
		// The drawer may return fewer ids than asked (false-positive
		// descents, a version with no positive). Credit is charged for
		// ids actually sent — the client can only grant back what it
		// received, so charging the ask would leak the difference and
		// starve a stream over a lossy key. Progress is counted by the
		// ask, so the stream terminates whatever the key yields.
		st.grant(uint64(max(n-len(ids), 0)))
		drawn += n
		if err := emit(ids, drawn >= req.N); err != nil {
			return err
		}
	}
	return nil
}

// ReconstructRequest asks for the full contents of a stored set.
type ReconstructRequest struct {
	Key string `json:"key"`
	// Deprecated: accepted and ignored, as on SampleRequest.
	Dynamic bool `json:"dynamic,omitempty"`
}

// ReconstructResponse returns the reconstructed ids in ascending order. It is
// the document a client decodes; the server writes it from a reconstruction.
type ReconstructResponse struct {
	Key   string   `json:"key"`
	Count int      `json:"count"`
	IDs   []uint64 `json:"ids"`
}

// reconstruction is a served reconstruction as the codecs write it: the key
// asked for, the number of ids, and the rendering kept beside the pinned
// version's table, which holds the ids in each codec's bytes.
type reconstruction struct {
	key   string
	count int
	kept  *rendering
}

// reconstruct pins the published filter version, bounds the response (a
// reconstruction is sent whole, so it obeys the same cap as a buffered sample
// batch) and answers with every positive of the version: §6's S ∪ S(B) over
// the tree's leaves, every stored id among them. That is the version's packed
// positives (setdb.PositivesFrom), which the first request on a version pays
// for with one scan of the leaves; the codecs write the table's rendering,
// which the first request of each codec on the table renders and every later
// one writes as it is. The cap is checked twice: on the cardinality
// estimate, so that a set far over it is refused before the scan is paid
// for, and on the table's size, which holds the filter's false positives too
// and is what the cap promises to bound — so an over-cap table is never
// rendered.
func (s *Server) reconstruct(req ReconstructRequest) (reconstruction, error) {
	db := s.DB()
	f, err := pinned(db, req.Key)
	if err != nil {
		return reconstruction{}, err
	}
	overCap := func(n float64) error {
		if n <= float64(s.cfg.MaxBatch) {
			return nil
		}
		return errf(http.StatusRequestEntityTooLarge,
			"set %q reconstructs to %.0f ids, above the %d reconstruction limit", req.Key, n, s.cfg.MaxBatch)
	}
	if err := overCap(f.EstimateCardinality()); err != nil {
		return reconstruction{}, err
	}
	p, err := db.PositivesFrom(f)
	if err != nil {
		return reconstruction{}, err
	}
	if err := overCap(float64(p.Len())); err != nil {
		return reconstruction{}, err
	}
	return reconstruction{key: req.Key, count: p.Len(), kept: renderingOf(p)}, nil
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

func (s *Server) intersection(req IntersectionRequest) (IntersectionResponse, error) {
	if req.KeyA == "" || req.KeyB == "" {
		return IntersectionResponse{}, errMissingKey
	}
	est, err := s.DB().IntersectionEstimate(req.KeyA, req.KeyB)
	return IntersectionResponse{KeyA: req.KeyA, KeyB: req.KeyB, Estimate: est}, err
}

// AddRequest inserts ids, creating sets on first use. Two shapes apply:
//
//   - single-key: Key + IDs (+ Dynamic) — one copy-on-write store.
//   - batch: Sets — any number of key/ids pairs applied as one
//     setdb.ApplyBatch, which grows the tree once and takes the writer
//     lock once for the whole batch. The batch is all-or-nothing: any
//     clash or out-of-range id applies nothing.
//
// Exactly one shape must be used per request (the wire protocol only has
// the batch shape). Dynamic is the kind a new key gets — a removable set
// on the configured backend rather than a plain filter; the kind is fixed
// at creation, and an add naming the other kind of an existing key is a
// 409.
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

func (s *Server) add(req AddRequest) (AddResponse, error) {
	sets := req.Sets
	if len(sets) == 0 {
		sets = []AddSet{{Key: req.Key, IDs: req.IDs, Dynamic: req.Dynamic}}
	} else if req.Key != "" || len(req.IDs) > 0 || req.Dynamic {
		return AddResponse{}, errf(http.StatusBadRequest, "use either key/ids or sets, not both")
	}
	writes := make([]setdb.Write, len(sets))
	for i, set := range sets {
		writes[i] = setdb.Write{Key: set.Key, IDs: set.IDs, Dynamic: set.Dynamic}
	}
	total, err := s.applyWrites(writes)
	if err != nil {
		return AddResponse{}, err
	}
	return AddResponse{Key: req.Key, Added: total, Keys: len(req.Sets)}, nil
}

// RemoveRequest removes one insertion of each id from the removable set
// under Key (a plain set, like an absent key, is a 404). The batch is
// all-or-nothing: a single non-member id fails the whole request (409)
// and publishes nothing.
type RemoveRequest struct {
	Key string   `json:"key"`
	IDs []uint64 `json:"ids"`
}

// RemoveResponse acknowledges a removal.
type RemoveResponse struct {
	Key     string `json:"key"`
	Removed int    `json:"removed"`
}

func (s *Server) remove(req RemoveRequest) (RemoveResponse, error) {
	removed, err := s.applyWrites([]setdb.Write{{Key: req.Key, IDs: req.IDs, Dynamic: true, Remove: true}})
	return RemoveResponse{Key: req.Key, Removed: removed}, err
}

// applyWrites is the one mutation path: it bounds the batch, then runs
// it through the durability layer when one is configured (apply + log +
// fsync before the ack) or straight into the in-memory database
// otherwise, and returns the number of ids written. Two limits bound the
// work: MaxBatch caps the total id count, and MaxBatchSets caps the key
// count — each set costs a full-size filter allocation and lengthens the
// locked group-commit build regardless of how few ids it carries.
func (s *Server) applyWrites(writes []setdb.Write) (total int, err error) {
	if len(writes) > s.cfg.MaxBatchSets {
		return 0, errf(http.StatusRequestEntityTooLarge, "%d sets exceed the batch limit %d", len(writes), s.cfg.MaxBatchSets)
	}
	for _, w := range writes {
		if w.Key == "" {
			return 0, errMissingKey
		}
		total += len(w.IDs)
	}
	if total > s.cfg.MaxBatch {
		return 0, errf(http.StatusRequestEntityTooLarge, "%d ids exceed the batch limit %d", total, s.cfg.MaxBatch)
	}
	if d := s.cfg.Durability; d != nil {
		return total, d.Apply(writes)
	}
	return total, s.DB().ApplyBatch(writes)
}

// SnapshotTriggerResponse is the POST /v1/snapshot payload.
type SnapshotTriggerResponse struct {
	Snapshot wal.SnapshotInfo `json:"snapshot"`
}

// snapshot triggers an on-disk snapshot of the durability layer.
// (Downloading a live bundle — GET /v1/snapshot — needs no WAL and is an
// HTTP-only framing of setdb's SnapshotView; see server.go.)
func (s *Server) snapshot() (SnapshotTriggerResponse, error) {
	d := s.cfg.Durability
	if d == nil {
		return SnapshotTriggerResponse{}, errf(http.StatusBadRequest,
			"server has no durability layer (start with -data-dir); GET /v1/snapshot still downloads a live bundle")
	}
	info, err := d.Snapshot()
	return SnapshotTriggerResponse{Snapshot: info}, err
}

// RestoreResponse acknowledges a completed restore.
type RestoreResponse struct {
	Restored bool   `json:"restored"`
	Sets     int    `json:"sets"`
	Dynamic  int    `json:"dynamic_sets"`
	Backend  string `json:"backend"`
}

// restore replaces the served database with the bundle read from r. The
// codec bounds r (MaxRestoreBytes over HTTP, the frame-body cap on the
// wire — bundles beyond that must use POST /v1/restore, which streams
// arbitrary sizes). The freshly-decoded database is persisted through
// the WAL first (the restore is itself durable), then published to
// readers.
func (s *Server) restore(r io.Reader) (RestoreResponse, error) {
	db, err := setdb.ReadBundle(r)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return RestoreResponse{}, errf(http.StatusRequestEntityTooLarge, "restore bundle exceeds %d bytes", mbe.Limit)
		}
		return RestoreResponse{}, errf(http.StatusBadRequest, "bad restore bundle: %v", err)
	}
	if d := s.cfg.Durability; d != nil {
		if err := d.RestoreDB(db); err != nil {
			return RestoreResponse{}, err
		}
		db = d.DB()
	}
	s.db.Store(db)
	st := db.Stats()
	return RestoreResponse{Restored: true, Sets: st.Sets, Dynamic: st.DynamicSets, Backend: string(db.Options().Backend)}, nil
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
	ServedInline   uint64 `json:"served_inline"` // requests the connection's reader served itself (binConn.dispatch)
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
	DB            setdb.DBStats            `json:"db"`
	Wire          WireStats                `json:"wire"`
	Durability    *wal.Stats               `json:"durability,omitempty"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
}

// stats assembles the stats document served by GET /v1/stats and rendered
// as the bst_* families of /metrics (collectMetrics): every counter is read
// here, once.
func (s *Server) stats() StatsResponse {
	db := s.DB()
	opts := db.Options()
	// One clock read: the QPS denominators below must agree with the
	// uptime field they ship with.
	uptime := time.Since(s.start)
	resp := StatsResponse{
		UptimeSeconds: uptime.Seconds(),
		Options: OptionsStats{
			Namespace: opts.Namespace,
			Bits:      opts.Bits,
			K:         opts.K,
			HashKind:  string(opts.HashKind),
			TreeDepth: opts.TreeDepth,
			Pruned:    opts.Pruned,
		},
		DB: db.Stats(),
		Wire: WireStats{
			ConnsActive:    s.bin.connsActive.Load(),
			ConnsTotal:     s.bin.connsTotal.Load(),
			FramesIn:       s.bin.framesIn.Load(),
			FramesOut:      s.bin.framesOut.Load(),
			ServedInline:   s.bin.servedInline.Load(),
			StreamsActive:  s.bin.streamsActive.Load(),
			CreditStalls:   s.bin.creditStalls.Load(),
			ProtocolErrors: s.bin.protoErrors.Load(),
			Shed:           s.bin.shed.Load(),
			InFlight:       s.inflight.inUse(),
			MaxInFlight:    s.cfg.MaxInFlight,
			WritesInFlight: s.writeGate.inUse(),
			MaxWrites:      s.cfg.MaxWrites,
			ConnWindow:     s.cfg.ConnWindow,
		},
		Endpoints: map[string]EndpointStats{},
	}
	if d := s.cfg.Durability; d != nil {
		ds := d.Stats()
		resp.Durability = &ds
	}
	for path, m := range s.metrics {
		resp.Endpoints[path] = m.snapshot(uptime)
	}
	return resp
}
