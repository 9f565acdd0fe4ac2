package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"time"
)

// perLayer names the per-layer metrics of the contract, in the order of the
// layers from the hash family up to the socket. None has a bound. Every
// workload reports all of them, each on that workload's data shape; which
// end-to-end metric each should move is recorded in bench/README.md.
var perLayer = []metricDef{
	{"hashfam.positions_ns_per_key", "ns", "lower", 0},

	{"bitset.testall_ns_per_probe", "ns", "lower", 0},
	{"bitset.andcount_ns_per_call", "ns", "lower", 0},
	{"bitset.andcount_bytes_per_call", "B", "lower", 0},

	{"bloom.contains_batch_ns_per_key", "ns", "lower", 0},
	{"bloom.intersection_estimate_ns_per_call", "ns", "lower", 0},
	{"bloom.clone_add_ns_per_id", "ns", "lower", 0},

	{"membership.clone_add_ns_per_id", "ns", "lower", 0},
	{"membership.clone_remove_ns_per_id", "ns", "lower", 0},
	{"membership.query_view_miss_ns_per_call", "ns", "lower", 0},
	{"membership.query_view_hit_ns_per_call", "ns", "lower", 0},

	{"core.sample_ns_per_draw", "ns", "lower", 0},
	{"core.sample_self_ns_per_draw", "ns", "lower", 0},
	{"core.sample_allocs_per_draw", "count", "lower", 0},
	{"core.intersections_per_draw", "count", "lower", 0},
	{"core.memberships_per_draw", "count", "lower", 0},
	{"core.nodes_per_draw", "count", "lower", 0},
	{"core.leaves_per_draw", "count", "lower", 0},
	{"core.backtracks_per_draw", "count", "lower", 0},
	{"core.nosample_share", "share", "lower", 0},
	{"core.samplen_ns_per_draw", "ns", "lower", 0},
	{"core.samplen_intersections_per_draw", "count", "lower", 0},
	{"core.samplen_memberships_per_draw", "count", "lower", 0},
	{"core.reconstruct_ns_per_call", "ns", "lower", 0},
	{"core.reconstruct_self_ns_per_call", "ns", "lower", 0},
	{"core.reconstruct_intersections_per_call", "count", "lower", 0},
	{"core.reconstruct_memberships_per_call", "count", "lower", 0},
	{"core.reconstruct_recall", "share", "higher", 0},
	{"core.chi2_over_dof", "ratio", "lower", 0},
	{"core.tree_build_ms", "ms", "lower", 0},
	{"core.tree_memory_mb", "MB", "lower", 0},

	{"setdb.lookup_ns_per_call", "ns", "lower", 0},
	{"setdb.sample_many_ns_per_draw", "ns", "lower", 0},
	{"setdb.sample_many_self_ns_per_draw", "ns", "lower", 0},
	{"setdb.sample_many_allocs_per_call", "count", "lower", 0},
	{"setdb.shortfall_share", "share", "lower", 0},
	{"setdb.apply_batch_ns_per_write", "ns", "lower", 0},
	{"setdb.bytes_copied_per_write", "B", "lower", 0},
	{"setdb.snapshot_dynamic_ns_per_call", "ns", "lower", 0},

	{"wal.apply_ns_per_write", "ns", "lower", 0},
	{"wal.self_ns_per_write", "ns", "lower", 0},
	{"wal.bytes_per_write", "B", "lower", 0},
	{"wal.fsyncs_per_1k_writes", "count", "lower", 0},
	{"wal.replay_ns_per_write", "ns", "lower", 0},
	{"wal.snapshot_ms", "ms", "lower", 0},

	{"wire.encode_req_ns", "ns", "lower", 0},
	{"wire.decode_resp_ns_per_id", "ns", "lower", 0},
	{"wire.resp_bytes_per_id", "B", "lower", 0},

	{"server.http_ns_per_req", "ns", "lower", 0},
	{"server.http_self_ns_per_req", "ns", "lower", 0},
	{"server.http_allocs_per_req", "count", "lower", 0},
	{"server.http_resp_bytes_per_id", "B", "lower", 0},
	{"server.bin_ns_per_req", "ns", "lower", 0},
	{"server.bin_self_ns_per_req", "ns", "lower", 0},
	{"server.bin_allocs_per_req", "count", "lower", 0},
	{"server.loopback_ns_per_req", "ns", "lower", 0},
	{"server.transport_self_ns_per_req", "ns", "lower", 0},
	{"server.served_p50_us", "us", "lower", 0},
	{"server.served_p99_us", "us", "lower", 0},
	{"server.stage_admission_share", "share", "lower", 0},
	{"server.stage_decode_share", "share", "lower", 0},
	{"server.stage_execute_share", "share", "higher", 0},
	{"server.stage_encode_share", "share", "lower", 0},
	{"server.shed_total", "count", "lower", 0},
	{"server.gc_pause_ms", "ms", "lower", 0},
	{"server.heap_mb", "MB", "lower", 0},

	{"trace.machine_speed", "ratio", "higher", 0},
	{"trace.overhead_share", "share", "lower", 0},
	{"ledger.residual_share", "share", "lower", 0},
}

func perLayerUnit(name string) string {
	d, _ := defOf(perLayer, name)
	return d.unit
}

// reps is how often every fixed piece of work is timed. A plain timing is
// reported as its fastest repetition, a self time as the median over the
// repetitions of the difference taken within one repetition.
const reps = 7

// span is one timed call into a layer, made from the benchmark's own files:
// tracing inside the program is a later issue. Parent is the index of the
// span of the layer above on the same inputs (-1 for the outermost), and the
// spans of one repetition share Req. The calls of one repetition run one
// after the other, so a parent's interval does not contain its child's; the
// link records which call the child explains, and a layer's self time is its
// span minus its children's.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Units  int    `json:"units"` // pieces of work inside the span
}

// tracer keeps the spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do times fn as one span and returns the span's index.
func (t *tracer) do(name string, parent, req, units int, fn func()) int {
	start := time.Now()
	fn()
	end := time.Now()
	t.spans = append(t.spans, span{name, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds(), parent, req, units})
	return len(t.spans) - 1
}

// dur is the length of span i in nanoseconds.
func (t *tracer) dur(i int) float64 { return float64(t.spans[i].End - t.spans[i].Start) }

// min is the fastest repetition of the spans called name, in ns per unit of
// work: on a shared box noise only ever adds time.
func (t *tracer) min(name string) float64 {
	best := math.NaN()
	for _, s := range t.spans {
		if v := float64(s.End-s.Start) / float64(max(s.Units, 1)); s.Name == name && !(v >= best) {
			best = v
		}
	}
	return best
}

// traceFile is bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (f *traceFile) write() error {
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+f.Workload+".json"), append(data, '\n'), 0o644)
}

// ledgerRow is one line of the table that sums to the loopback request time;
// the table is part of the traced result (trace.json).
type ledgerRow struct {
	Layer  string  `json:"layer"`
	SelfNS float64 `json:"self_ns_per_req"`
	Share  float64 `json:"share"`
}
