package server

import (
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

// AdminHandler returns the operational surface served on the separate
// -admin-addr listener, kept off the data-plane mux on purpose: pprof
// exposes heap contents and /metrics invites unauthenticated scrapes,
// so neither belongs on the port that faces clients.
//
//	GET /metrics        Prometheus text exposition (0.0.4)
//	GET /healthz        liveness: 200 once the process serves at all
//	GET /readyz         readiness: 200 only between SetReady(true/false)
//	    /debug/pprof/*  the standard Go profiling endpoints
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte("not ready\n"))
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ready\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	e := s.collectMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = e.WriteTo(w)
}

// latencyUppers is the exposition-format view of the shared latency
// bucket layout: finite upper bounds in seconds for buckets 0..26; the
// overflow bucket renders as +Inf.
var latencyUppers = func() []float64 {
	uppers := make([]float64, latencyBuckets-1)
	for i := range uppers {
		uppers[i] = bucketUpperUS(i) / 1e6
	}
	return uppers
}()

// collectMetrics assembles the full exposition: request counters and
// histograms per endpoint, stage timings, admission and wire state,
// database and backend gauges, WAL durability counters, and Go runtime
// basics. Everything /v1/stats also serves is rendered from the one document
// stats() builds; only the histograms, which that document summarizes, are
// read from the endpoint metrics directly. Map iteration is sorted so
// consecutive scrapes are byte-comparable apart from the values.
func (s *Server) collectMetrics() *obs.Exposition {
	e := obs.NewExposition()
	doc := s.stats()

	e.Gauge("bst_uptime_seconds", "Seconds since the server started.", doc.UptimeSeconds)
	ready := 0.0
	if s.Ready() {
		ready = 1
	}
	e.Gauge("bst_ready", "1 when /readyz reports ready.", ready)

	endpoints := make([]string, 0, len(s.metrics))
	for name := range s.metrics {
		endpoints = append(endpoints, name)
	}
	sort.Strings(endpoints)
	for _, name := range endpoints {
		m := s.metrics[name]
		label := obs.L("endpoint", name)
		requests := m.requests.Load()
		e.Counter("bst_requests_total", "Requests finished, per endpoint (sheds included).",
			float64(requests), label)
		e.Counter("bst_request_errors_total", "Requests that failed, per endpoint (sheds included).",
			float64(m.errors.Load()), label)
		e.Counter("bst_requests_shed_total", "Requests rejected by admission control, per endpoint.",
			float64(m.shed.Load()), label)
		if requests == 0 {
			// No traffic yet: skip the histograms (30+ series each) so an
			// idle server's scrape stays a few KB. The counters above
			// still advertise the endpoint's existence.
			continue
		}
		counts, sumNS := m.latency.counts()
		e.Histogram("bst_request_duration_seconds", "Request latency, per endpoint (sheds excluded).",
			[]obs.Label{label}, latencyUppers, counts[:], float64(sumNS)/1e9)
		for st := 0; st < obs.NumStages; st++ {
			stCounts, stSumNS := m.stages[st].counts()
			var total uint64
			for _, c := range stCounts {
				total += c
			}
			if total == 0 {
				continue // tracing off, or no traced request yet
			}
			e.Histogram("bst_request_stage_duration_seconds",
				"Per-stage request latency (admission wait, decode, execute, encode).",
				[]obs.Label{label, obs.L("stage", obs.StageNames[st])},
				latencyUppers, stCounts[:], float64(stSumNS)/1e9)
		}
	}

	// Admission gates: point-in-time occupancy against the budget.
	e.Gauge("bst_admission_in_flight", "Requests currently holding an admission slot.",
		float64(doc.Wire.InFlight), obs.L("budget", "global"))
	e.Gauge("bst_admission_in_flight", "", float64(doc.Wire.WritesInFlight), obs.L("budget", "write"))
	e.Gauge("bst_admission_limit", "Admission budget size.",
		float64(doc.Wire.MaxInFlight), obs.L("budget", "global"))
	e.Gauge("bst_admission_limit", "", float64(doc.Wire.MaxWrites), obs.L("budget", "write"))

	// Binary wire listener.
	e.Gauge("bst_wire_conns_active", "Open binary-protocol connections.", float64(doc.Wire.ConnsActive))
	e.Counter("bst_wire_conns_total", "Binary-protocol connections accepted.", float64(doc.Wire.ConnsTotal))
	e.Counter("bst_wire_frames_in_total", "Frames received on the binary listener.", float64(doc.Wire.FramesIn))
	e.Counter("bst_wire_frames_out_total", "Frames sent on the binary listener.", float64(doc.Wire.FramesOut))
	e.Counter("bst_wire_served_inline_total", "Binary requests served by their connection's reader, no goroutine of their own.", float64(doc.Wire.ServedInline))
	e.Gauge("bst_wire_streams_active", "Binary sample streams in progress.", float64(doc.Wire.StreamsActive))
	e.Counter("bst_wire_credit_stalls_total", "Stream pauses waiting for client credit.", float64(doc.Wire.CreditStalls))
	e.Counter("bst_wire_protocol_errors_total", "Malformed frames and protocol violations.", float64(doc.Wire.ProtocolErrors))
	e.Counter("bst_wire_shed_total", "BUSY frames sent by admission control.", float64(doc.Wire.Shed))

	// Database state: copy-on-write write path and tree memory.
	st := doc.DB
	e.Gauge("bst_db_sets", "Keys holding a plain set.", float64(st.Sets))
	e.Gauge("bst_db_dynamic_sets", "Keys holding a dynamic (removable) set.", float64(st.DynamicSets))
	e.Counter("bst_db_state_writes_total", "Copy-on-write shard-state writes.", float64(st.StateWrites))
	e.Counter("bst_db_state_publishes_total", "Shard-state snapshot publishes (group commit coalesces writes).", float64(st.StatePublishes))
	e.Counter("bst_db_state_bytes_copied_total", "Bytes copied by the copy-on-write write path.", float64(st.StateBytesCopied))
	e.Counter("bst_db_sample_draws_lost_total", "Batch sample draws that ended on a false-positive path (requested minus returned).", float64(st.SampleDrawsLost))
	e.Counter("bst_db_estimates_computed_total", "Intersection estimates computed by sampling requests.", float64(st.EstimatesComputed))
	e.Counter("bst_db_estimates_remembered_total", "Intersection estimates sampling requests read back from a filter version's index instead of computing them.", float64(st.EstimatesRemembered))
	e.Counter("bst_db_draws_warm_total", "Sample draws that were uniform picks from a filter version's packed positives (a uniform request's, every one; a default request's once the version has scanned).", float64(st.DrawsWarm))
	e.Counter("bst_db_draws_descended_total", "Sample draws that were descents of the sampling tree (lost ones included).", float64(st.DrawsDescended))
	e.Counter("bst_db_positives_scans_total", "Leaf scans run by filter versions: once their requests had tested as many ids as the scan would, or for a uniform request or a reconstruction, which do not wait.", float64(st.PositivesScans))
	e.Counter("bst_db_positives_declined_total", "Leaf scans that kept nothing because the packed positives outgrew the filter version's own bytes.", float64(st.PositivesDeclined))
	e.Counter("bst_db_positives_dropped_total", "Packed-positives tables dropped because the pruned sampling tree grew a leaf under them.", float64(st.PositivesDropped))
	e.Counter("bst_db_positives_bytes_total", "Bytes of every packed-positives table kept (cumulative; tables die with their filter version).", float64(st.PositivesBytes))
	e.Counter("bst_db_generations_total", "Key lifetimes ever created (a write to an existing key does not move it).", float64(st.Generations))
	e.Gauge("bst_db_tree_nodes", "Materialized BST nodes.", float64(st.TreeNodes))
	e.Gauge("bst_db_tree_memory_bytes", "Bytes held by the sampling tree.", float64(st.TreeMemoryBytes))
	e.Gauge("bst_db_growth_epoch", "Growth publishes of the pruned sampling tree, summed over its subtrees (0 for a full tree).", float64(st.GrowthEpoch))
	e.Gauge("bst_db_total_chunks", "Chunks across all shard key maps (one map per shard).", float64(st.TotalChunks))

	// Dynamic-set membership backend descriptor.
	kind := obs.L("kind", st.Backend.Kind)
	e.Gauge("bst_backend_entries", "Live elements across dynamic sets.", float64(st.Backend.Entries), kind)
	e.Gauge("bst_backend_memory_bytes", "Resident bytes of the membership backend.", float64(st.Backend.MemoryBytes), kind)
	e.Gauge("bst_backend_bits_per_entry", "Realized bits per stored element.", st.Backend.BitsPerEntry, kind)

	// Durability (only when a WAL store backs the server).
	if ds := doc.Durability; ds != nil {
		e.Counter("bst_wal_appended_bytes_total", "Bytes appended to the write-ahead log.", float64(ds.AppendedBytes))
		e.Counter("bst_wal_fsyncs_total", "Successful fsyncs of the active segment.", float64(ds.Fsyncs))
		e.Counter("bst_wal_fsync_errors_total", "Failed fsyncs of the active segment.", float64(ds.FsyncErrors))
		e.Counter("bst_wal_rotations_total", "Segment rotations.", float64(ds.Rotations))
		e.Counter("bst_wal_snapshots_total", "Snapshots completed.", float64(ds.Snapshots))
		e.Counter("bst_wal_snapshot_errors_total", "Snapshot attempts that failed.", float64(ds.SnapshotErrors))
		e.Gauge("bst_wal_segments", "Log segments on disk.", float64(ds.Segments))
		e.Gauge("bst_wal_bytes", "Total on-disk log bytes.", float64(ds.WALBytes))
		e.Gauge("bst_wal_seq", "Last applied record sequence number.", float64(ds.Seq))
		e.Gauge("bst_wal_records_since_snapshot", "Records appended since the last snapshot.", float64(ds.RecordsSinceSnapshot))
		e.Gauge("bst_wal_last_snapshot_seq", "Sequence number covered by the newest snapshot.", float64(ds.LastSnapshotSeq))
		if ds.LastSnapshotUnix > 0 {
			e.Gauge("bst_wal_snapshot_age_seconds", "Seconds since the last completed snapshot.",
				time.Since(time.Unix(ds.LastSnapshotUnix, 0)).Seconds())
		}
		e.Counter("bst_wal_dropped_tail_bytes", "Torn tail bytes dropped during boot recovery.", float64(ds.DroppedTailBytes))
		e.Counter("bst_wal_replayed_records", "Records replayed during boot recovery.", float64(ds.ReplayedAtBoot))
	}

	// Go runtime basics — enough to spot GC pressure and goroutine leaks
	// without importing a metrics dependency.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.Gauge("bst_go_goroutines", "Live goroutines.", float64(runtime.NumGoroutine()))
	e.Gauge("bst_go_heap_alloc_bytes", "Heap bytes allocated and in use.", float64(ms.HeapAlloc))
	e.Gauge("bst_go_heap_sys_bytes", "Heap bytes obtained from the OS.", float64(ms.HeapSys))
	e.Gauge("bst_go_heap_objects", "Live heap objects.", float64(ms.HeapObjects))
	e.Counter("bst_go_gc_runs_total", "Completed GC cycles.", float64(ms.NumGC))
	e.Counter("bst_go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause.", float64(ms.PauseTotalNs)/1e9)
	e.Gauge("bst_go_gomaxprocs", "GOMAXPROCS.", float64(runtime.GOMAXPROCS(0)))
	return e
}
