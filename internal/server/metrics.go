package server

import (
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Latency histogram layout: fixed log-spaced buckets, one atomic counter
// each. Bucket i holds durations in [2^(i-1)µs, 2^i µs) — bucket 0 is
// everything under 1µs, the last bucket is an overflow for anything at
// or above ~67s. Log spacing gives ~1 significant figure of resolution
// across six orders of magnitude for 28 words per endpoint, and the
// power-of-two boundaries make the bucket index one bits.Len64, no
// search, no float math on the hot path.
const latencyBuckets = 28

// bucketForNS maps a duration to its histogram bucket.
func bucketForNS(ns uint64) int {
	us := ns / 1e3
	idx := bits.Len64(us) // 0 for <1µs, 1 for 1µs, ... log2+1 beyond
	if idx >= latencyBuckets {
		idx = latencyBuckets - 1
	}
	return idx
}

// bucketUpperUS is the exclusive upper bound of bucket i in µs.
func bucketUpperUS(i int) float64 {
	return float64(uint64(1) << i)
}

// logHist is one latency histogram in the layout above: 28 atomic
// buckets plus the cumulative sum. The hot path adds without locks;
// exporters copy a point-in-time view bucket by bucket.
type logHist struct {
	buckets [latencyBuckets]atomic.Uint64
	sumNS   atomic.Uint64
}

func (h *logHist) observe(ns uint64) {
	h.sumNS.Add(ns)
	h.buckets[bucketForNS(ns)].Add(1)
}

// counts copies the buckets and the sum for export.
func (h *logHist) counts() (counts [latencyBuckets]uint64, sumNS uint64) {
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return counts, h.sumNS.Load()
}

// endpointMetrics accumulates per-endpoint counters. All fields are
// atomics: the hot path adds to them without locks, and /v1/stats reads
// them without pausing traffic.
type endpointMetrics struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	shed     atomic.Uint64 // rejected by admission control (subset of errors)
	maxNS    atomic.Uint64
	latency  logHist // successful and failed alike, sheds excluded

	// Per-stage timing histograms (admission wait / decode / execute /
	// encode), fed by request tracing. Same bucket layout as latency, so
	// "where does p99 live" is answerable stage by stage from /metrics.
	stages [obs.NumStages]logHist
}

// observe records one finished request.
func (m *endpointMetrics) observe(d time.Duration, failed bool) {
	m.requests.Add(1)
	if failed {
		m.errors.Add(1)
	}
	ns := uint64(d.Nanoseconds())
	m.latency.observe(ns)
	for {
		old := m.maxNS.Load()
		if ns <= old || m.maxNS.CompareAndSwap(old, ns) {
			return
		}
	}
}

// observeStages folds one finished request's trace into the per-stage
// histograms. Every stage is recorded (a zero-duration stage lands in
// bucket 0) so all four stage series share one _count and stay
// comparable.
func (m *endpointMetrics) observeStages(tr *obs.Trace) {
	for s := range m.stages {
		m.stages[s].observe(uint64(tr.StageDur(obs.Stage(s)).Nanoseconds()))
	}
}

// observeShed records one request rejected by admission control. Sheds
// count as requests and errors (a client saw a failure) but skip the
// histogram: a fast-path rejection's ~µs latency would drag p50 down
// and misrepresent the latency of served traffic.
func (m *endpointMetrics) observeShed() {
	m.requests.Add(1)
	m.errors.Add(1)
	m.shed.Add(1)
}

// quantile estimates the q-th latency quantile (0 < q < 1) in µs from
// the histogram counts, interpolating linearly within the bucket that
// holds the target rank. counts is a point-in-time copy so the answer is
// internally consistent even while writers race.
func quantile(counts *[latencyBuckets]uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if seen+fc >= rank {
			lower := 0.0
			if i > 0 {
				lower = bucketUpperUS(i - 1)
			}
			upper := bucketUpperUS(i)
			frac := (rank - seen) / fc
			return lower + frac*(upper-lower)
		}
		seen += fc
	}
	return bucketUpperUS(latencyBuckets - 1)
}

// EndpointStats is the JSON form of one endpoint's counters.
type EndpointStats struct {
	Requests     uint64  `json:"requests"`
	Errors       uint64  `json:"errors"`
	Shed         uint64  `json:"shed,omitempty"` // admission-control rejections
	AvgLatencyUS float64 `json:"avg_latency_us"`
	P50LatencyUS float64 `json:"p50_latency_us"`
	P99LatencyUS float64 `json:"p99_latency_us"`
	MaxLatencyUS float64 `json:"max_latency_us"`
	QPS          float64 `json:"qps"`
}

// snapshot renders the counters; uptime converts the request count into
// a lifetime QPS.
func (m *endpointMetrics) snapshot(uptime time.Duration) EndpointStats {
	st := EndpointStats{
		Requests:     m.requests.Load(),
		Errors:       m.errors.Load(),
		Shed:         m.shed.Load(),
		MaxLatencyUS: float64(m.maxNS.Load()) / 1e3,
	}
	counts, sumNS := m.latency.counts()
	var observed uint64
	for _, c := range counts {
		observed += c
	}
	if observed > 0 {
		st.P50LatencyUS = quantile(&counts, 0.50)
		st.P99LatencyUS = quantile(&counts, 0.99)
		st.AvgLatencyUS = float64(sumNS) / float64(observed) / 1e3
	}
	if s := uptime.Seconds(); s > 0 {
		st.QPS = float64(st.Requests) / s
	}
	return st
}
