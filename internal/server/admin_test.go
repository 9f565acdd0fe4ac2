package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/setdb"
)

// newObsServer builds a Server (not just its handler) so tests can
// reach SetReady and AdminHandler, plus httptest frontends for both the
// data and admin planes.
func newObsServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *httptest.Server) {
	t.Helper()
	opts, err := setdb.PlanOptions(0.9, 256, 100_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts.Pruned = true
	opts.Seed = 7
	db, err := setdb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("plain", 1, 2, 3, 4, 5, 6, 7, 8); err != nil {
		t.Fatal(err)
	}
	srv := New(db, cfg)
	data := httptest.NewServer(srv)
	admin := httptest.NewServer(srv.AdminHandler())
	t.Cleanup(data.Close)
	t.Cleanup(admin.Close)
	return srv, data, admin
}

// widen adds a key whose 64 ids lie in as many leaves of the pruned tree, so
// that a scan of the leaves is priced at some 12 500 ids and the two dozen
// draws a test makes (≤ 220 ids tested each) leave every version cold.
func widen(t *testing.T, srv *Server) {
	t.Helper()
	ids := make([]uint64, 64)
	for i := range ids {
		ids[i] = uint64(i) * 1500
	}
	if err := srv.DB().Add("wide", ids...); err != nil {
		t.Fatal(err)
	}
	if price := srv.DB().Tree().LeafIDs(); price < 12_000 {
		t.Fatalf("a scan is priced at %d ids", price)
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestMetricsExposition drives traffic through the HTTP plane and then
// validates the scrape end to end: declared families all have samples,
// no series repeats, histograms are cumulative with +Inf == _count, and
// the per-endpoint and per-stage series show the traffic just sent.
func TestMetricsExposition(t *testing.T) {
	srv, data, admin := newObsServer(t, Config{})
	widen(t, srv)
	srv.SetReady(true)
	for i := 0; i < 3; i++ {
		resp, err := http.Post(data.URL+"/v1/sample", "application/json",
			strings.NewReader(`{"key":"plain","n":4}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	code, body := get(t, admin.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}

	declared := map[string]bool{}
	sampled := map[string]bool{}
	series := map[string]bool{}
	var bucketPrev float64
	var bucketFamily string
	var infVal, countVal float64
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			declared[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		if series[key] {
			t.Errorf("duplicate series %q", key)
		}
		series[key] = true
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base = strings.TrimSuffix(base, suffix)
		}
		sampled[base] = true

		// Cumulative monotonicity for the request-duration histogram of
		// the sampled endpoint, bucket order as rendered.
		if strings.HasPrefix(key, `bst_request_duration_seconds_bucket{endpoint="/v1/sample"`) {
			v, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("bad value %q: %v", line, err)
			}
			if bucketFamily == key[:40] && v < bucketPrev {
				t.Errorf("histogram not cumulative at %q: %v < %v", key, v, bucketPrev)
			}
			bucketFamily = key[:40]
			bucketPrev = v
			if strings.Contains(key, `le="+Inf"`) {
				infVal = v
			}
		}
		if strings.HasPrefix(key, `bst_request_duration_seconds_count{endpoint="/v1/sample"`) {
			countVal, _ = strconv.ParseFloat(valStr, 64)
		}
	}
	for fam := range declared {
		if !sampled[fam] {
			t.Errorf("family %s declared with # TYPE but has no samples", fam)
		}
	}
	if infVal != 3 || countVal != 3 {
		t.Errorf("+Inf bucket %v / _count %v, want 3 requests", infVal, countVal)
	}
	for _, want := range []string{
		`bst_requests_total{endpoint="/v1/sample"} 3`,
		`bst_request_stage_duration_seconds_count{endpoint="/v1/sample",stage="decode"} 3`,
		`bst_request_stage_duration_seconds_count{endpoint="/v1/sample",stage="execute"} 3`,
		"bst_ready 1",
		"bst_go_goroutines",
		`bst_admission_limit{budget="global"}`,
		"# HELP bst_db_growth_epoch Growth batches of the pruned sampling tree (0 for a full tree).\n",
		"# HELP bst_db_estimates_remembered_total Intersection estimates sampling requests read back from a filter version's index instead of computing them.\n",
		"# HELP bst_db_draws_warm_total Sample draws that were uniform picks from a filter version's packed positives (a uniform request's, every one; a default request's once the version has scanned).\n",
		"# HELP bst_db_draws_descended_total Sample draws that were descents of the sampling tree (lost ones included).\n",
		"bst_db_draws_descended_total 12\n",
		"# HELP bst_db_positives_scans_total Leaf scans run by filter versions: once their requests had tested as many ids as the scan would, or for a uniform request or a reconstruction, which do not wait.\n",
		"# HELP bst_db_positives_declined_total Leaf scans that kept nothing because the packed positives outgrew the filter version's own bytes.\n",
		"# HELP bst_db_positives_dropped_total Packed-positives tables dropped because the pruned sampling tree grew a leaf under them.\n",
		"# HELP bst_db_positives_bytes_total Bytes of every packed-positives table kept (cumulative; tables die with their filter version).\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestVersionCountersAreServed samples one key until its filter version has
// paid for its scan and a request has been served from the table,
// reconstructs it, writes to another key so that the pruned tree grows
// leaves under it, reconstructs and samples once more, asks the other key —
// whose version nobody has drawn from — for five uniform draws, and reads
// the six counters of that life from both stats surfaces: /v1/stats and
// /metrics report the same numbers, and they are the numbers of what
// happened — one scan paid for by descents, one by the reconstruction that
// met the table the new leaves outdated and one by the uniform request,
// whose five draws were all picks, none declined, one table dropped, their
// bytes, and draws on both sides.
func TestVersionCountersAreServed(t *testing.T) {
	srv, data, admin := newObsServer(t, Config{})
	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(data.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	for i := 0; srv.DB().Stats().DrawsWarm == 0; i++ {
		if i == 10_000 {
			t.Fatal("the key never went warm")
		}
		post("/v1/sample", `{"key":"plain","n":32}`)
	}
	post("/v1/reconstruct", `{"key":"plain"}`)
	warm := srv.DB().Stats()
	// Four more leaves, which outdate the key's table: the next reconstruction
	// scans again, and the draw after it picks from what that scan kept.
	if err := srv.DB().Add("elsewhere", 96_000, 97_000, 98_000, 99_000); err != nil {
		t.Fatal(err)
	}
	post("/v1/reconstruct", `{"key":"plain"}`)
	post("/v1/sample", `{"key":"plain","n":1}`)
	before := srv.DB().Stats()
	post("/v1/sample", `{"key":"elsewhere","n":5,"uniform":true}`)
	var st StatsResponse
	_, body := get(t, data.URL+"/v1/stats")
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if warm.PositivesScans != 1 || before.PositivesScans != 2 || st.DB.PositivesScans != 3 || st.DB.PositivesDeclined != 0 || st.DB.PositivesDropped != 1 ||
		st.DB.PositivesBytes <= before.PositivesBytes || before.PositivesBytes <= warm.PositivesBytes ||
		before.DrawsWarm != warm.DrawsWarm+1 || st.DB.DrawsWarm != before.DrawsWarm+5 || st.DB.DrawsDescended != warm.DrawsDescended || st.DB.DrawsDescended == 0 {
		t.Fatalf("/v1/stats after a key went warm, the tree grew under it and another was drawn from exactly: %d scans (%d, %d before), %d declined, %d dropped, %d B (%d, %d before), %d picks (%d, %d before), %d descents",
			st.DB.PositivesScans, warm.PositivesScans, before.PositivesScans, st.DB.PositivesDeclined, st.DB.PositivesDropped,
			st.DB.PositivesBytes, warm.PositivesBytes, before.PositivesBytes, st.DB.DrawsWarm, warm.DrawsWarm, before.DrawsWarm, st.DB.DrawsDescended)
	}
	_, metrics := get(t, admin.URL+"/metrics")
	for name, v := range map[string]uint64{
		"bst_db_draws_warm_total":         st.DB.DrawsWarm,
		"bst_db_draws_descended_total":    st.DB.DrawsDescended,
		"bst_db_positives_scans_total":    st.DB.PositivesScans,
		"bst_db_positives_declined_total": st.DB.PositivesDeclined,
		"bst_db_positives_dropped_total":  st.DB.PositivesDropped,
		"bst_db_positives_bytes_total":    st.DB.PositivesBytes,
	} {
		if want := name + " " + strconv.FormatUint(v, 10); !strings.Contains(metrics, want+"\n") {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestHealthzReadyzLifecycle walks /readyz through the serving
// lifecycle: not ready at boot (replay may still be running), ready
// after SetReady(true), not ready again once drain begins — while
// /healthz stays 200 throughout.
func TestHealthzReadyzLifecycle(t *testing.T) {
	srv, _, admin := newObsServer(t, Config{})
	if code, _ := get(t, admin.URL+"/healthz"); code != 200 {
		t.Errorf("healthz at boot: %d", code)
	}
	if code, _ := get(t, admin.URL+"/readyz"); code != 503 {
		t.Errorf("readyz before SetReady: %d, want 503", code)
	}
	srv.SetReady(true)
	if code, _ := get(t, admin.URL+"/readyz"); code != 200 {
		t.Errorf("readyz after SetReady(true): %d", code)
	}
	srv.SetReady(false) // drain begins
	if code, _ := get(t, admin.URL+"/readyz"); code != 503 {
		t.Errorf("readyz during drain: %d, want 503", code)
	}
	if code, _ := get(t, admin.URL+"/healthz"); code != 200 {
		t.Errorf("healthz during drain: %d", code)
	}
}

func TestPprofIndexServed(t *testing.T) {
	_, _, admin := newObsServer(t, Config{})
	code, body := get(t, admin.URL+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index: status %d", code)
	}
}

// TestRequestIDPropagation covers the three header cases: a well-formed
// client ID is propagated, a malformed one is replaced, and no header
// gets a generated ID. Error responses must carry the ID in the body.
func TestRequestIDPropagation(t *testing.T) {
	_, data, _ := newObsServer(t, Config{})
	req, _ := http.NewRequest("POST", data.URL+"/v1/sample", strings.NewReader(`{"key":"plain"}`))
	req.Header.Set("X-Request-ID", "client-id-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-id-42" {
		t.Errorf("well-formed client ID not propagated: %q", got)
	}

	req, _ = http.NewRequest("POST", data.URL+"/v1/sample", strings.NewReader(`{"key":"plain"}`))
	req.Header.Set("X-Request-ID", "has spaces and {braces}")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	got := resp.Header.Get("X-Request-ID")
	if got == "" || strings.Contains(got, " ") || len(got) != 16 {
		t.Errorf("malformed client ID should be replaced by a generated one, got %q", got)
	}

	// Error responses echo the ID in the JSON body.
	resp, err = http.Post(data.URL+"/v1/sample", "application/json",
		strings.NewReader(`{"key":"no-such-set"}`))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 || eb.RequestID == "" {
		t.Errorf("404 body should carry request_id: status %d, body %+v", resp.StatusCode, eb)
	}
	if eb.RequestID != resp.Header.Get("X-Request-ID") {
		t.Errorf("body request_id %q != header %q", eb.RequestID, resp.Header.Get("X-Request-ID"))
	}
}

// TestTraceDisabled asserts the off switch really is off: no response
// header, no request_id in error bodies, no stage series in the scrape.
func TestTraceDisabled(t *testing.T) {
	_, data, admin := newObsServer(t, Config{TraceDisabled: true})
	resp, err := http.Post(data.URL+"/v1/sample", "application/json",
		strings.NewReader(`{"key":"plain"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "" {
		t.Errorf("TraceDisabled leaked X-Request-ID %q", got)
	}
	_, body := get(t, admin.URL+"/metrics")
	if strings.Contains(body, "bst_request_stage_duration_seconds") {
		t.Error("TraceDisabled still exported stage histograms")
	}
	if !strings.Contains(body, `bst_requests_total{endpoint="/v1/sample"} 1`) {
		t.Error("per-endpoint counters must stay on with tracing off")
	}
}

// TestTracingCostPerRequest is the tracing-overhead gate as the exact
// quantity it is: on one database, in process, a traced POST /v1/sample
// allocates 7 more times and ≈ 0.5 KB more than an untraced one (request
// id, trace, response header, context, request copy; 32 → 39 allocations,
// 7 304 → 7 800 B), which is the ≈ 1 µs a request that no timed gate can
// read (README, "Observability"). It fails when tracing is made to
// allocate more, and when TraceDisabled stops disabling (on == off).
func TestTracingCostPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector: allocation counts are not exact")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pools mid-count
	_, db := newTestServer(t, Config{})
	perRequest := func(cfg Config) (allocs, bytes float64) {
		h := New(db, cfg)
		serve := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sample", strings.NewReader(`{"key":"plain"}`)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
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
	if d := math.Round(onAllocs - offAllocs); d < 1 || d > 7 || onBytes-offBytes > 512 {
		t.Fatalf("tracing costs %+.2f allocations and %+.0f B a request (off %.2f / %.0f B, on %.2f / %.0f B), want +1..7 and at most +512 B",
			onAllocs-offAllocs, onBytes-offBytes, offAllocs, offBytes, onAllocs, onBytes)
	}
}

// nullWriter is the http.ResponseWriter of the allocation gates: it keeps
// nothing of a reply but its status and length, so what a request allocates
// is the server's.
type nullWriter struct {
	h         http.Header
	status, n int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }
func (w *nullWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// allocsPerRequest serves the same POST through h runs times, after once to
// warm the pools, and returns the mean allocations and bytes of one, and the
// length of its reply.
func allocsPerRequest(t *testing.T, h http.Handler, path, body string, runs int) (allocs, bytes float64, replyLen int) {
	t.Helper()
	w := &nullWriter{h: http.Header{}}
	serve := func() {
		w.n = 0
		h.ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(body)))
		if w.status != http.StatusOK {
			t.Fatalf("%s %s: status %d", path, body, w.status)
		}
	}
	serve()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs), w.n
}

// TestReplyCostPerRequest is the reply buffer's allocation gate, in process
// like the tracing gate above. A warm reconstruction through the HTTP
// handler allocates the same number of times whether it answers with some
// 100 ids or some 11 000 — the head is written in a pooled buffer and the ids
// are the table's kept rendering — and under 1 KB beyond what the request
// itself costs, where the result slice and the reply text were ≈ 190 KB a
// request; traced, as BenchmarkServedReconstruct/http serves it, it
// allocates no more than the 30 times it did when every request unpacked and
// printed its ids. And a single-id /v1/sample, the point workload's request,
// allocates no more than it did through encoding/json: 24 times and 6 325 B
// untraced, as at the parent commit (the reply's share: 6 allocations,
// 496 B).
func TestReplyCostPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector: allocation counts are not exact")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pools mid-count
	db := batchShapeDB(t)
	h := New(db, Config{TraceDisabled: true})
	smallAllocs, smallBytes, smallLen := allocsPerRequest(t, h, "/v1/reconstruct", `{"key":"small"}`, 500)
	bigAllocs, bigBytes, bigLen := allocsPerRequest(t, h, "/v1/reconstruct", `{"key":"big"}`, 500)
	t.Logf("warm reconstruction: %d reply bytes %.2f allocations %.0f B, %d reply bytes %.2f allocations %.0f B",
		smallLen, smallAllocs, smallBytes, bigLen, bigAllocs, bigBytes)
	if smallLen > 2_000 || bigLen < 70_000 {
		t.Fatalf("replies of %d and %d bytes: the gate wants one of about 100 ids and one of about 11 000", smallLen, bigLen)
	}
	if math.Round(bigAllocs) != math.Round(smallAllocs) || bigBytes > smallBytes+1024 {
		t.Fatalf("a reconstruction of %d reply bytes costs %.2f allocations and %.0f B, one of %d bytes %.2f and %.0f B: want the same count, and the bytes within 1 KB",
			bigLen, bigAllocs, bigBytes, smallLen, smallAllocs, smallBytes)
	}
	traced, w := New(db, Config{}), &nullWriter{h: http.Header{}}
	warm := testing.AllocsPerRun(200, func() {
		traced.ServeHTTP(w, httptest.NewRequest("POST", "/v1/reconstruct", strings.NewReader(`{"key":"big"}`)))
	})
	t.Logf("warm traced reconstruction: %.2f allocations", warm)
	if w.status != http.StatusOK || warm > 30 {
		t.Fatalf("a warm traced reconstruction: status %d, %.2f allocations, want at most 30", w.status, warm)
	}

	_, small := newTestServer(t, Config{})
	allocs, bytes, _ := allocsPerRequest(t, New(small, Config{TraceDisabled: true}), "/v1/sample", `{"key":"plain"}`, 2000)
	t.Logf("single-id sample: %.2f allocations %.0f B", allocs, bytes)
	if math.Round(allocs) > 24 || bytes > 6_400 {
		t.Fatalf("a single-id sample costs %.2f allocations and %.0f B, want at most the 24 and 6 325 B it cost through encoding/json", allocs, bytes)
	}
}

// TestSlowRequestLog sets an absurdly low threshold so every request is
// "slow" and asserts the warn line carries the joinable fields.
func TestSlowRequestLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	_, data, _ := newObsServer(t, Config{Logger: logger, SlowRequest: time.Nanosecond})
	req, _ := http.NewRequest("POST", data.URL+"/v1/sample", strings.NewReader(`{"key":"plain"}`))
	req.Header.Set("X-Request-ID", "slow-probe-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	out := buf.String()
	for _, want := range []string{"slow request", "request_id=slow-probe-1",
		"endpoint=/v1/sample", "stages_us.execute="} {
		if !strings.Contains(out, want) {
			t.Errorf("slow log missing %q in:\n%s", want, out)
		}
	}
}

// TestSampleShortfallIsReported drains a dynamic set so its filter is
// empty, asks it for batches over both sampling entry points of the HTTP
// plane, and checks that the ids the replies are short by show up — as the
// same number — in /v1/stats and in the /metrics counter. A reply with
// returned < requested must never be the only trace of a lost draw.
func TestSampleShortfallIsReported(t *testing.T) {
	srv, data, admin := newObsServer(t, Config{})
	db := srv.DB()
	if err := db.AddDynamic("drained", 10, 20, 30); err != nil {
		t.Fatal(err)
	}
	if err := db.RemoveDynamic("drained", 10, 20, 30); err != nil {
		t.Fatal(err)
	}
	lostBy := func() uint64 {
		var st StatsResponse
		_, body := get(t, data.URL+"/v1/stats")
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		return st.DB.SampleDrawsLost
	}
	before := lostBy()

	var short uint64
	for _, body := range []string{
		`{"key":"drained","dynamic":true,"n":7}`,
		`{"key":"drained","dynamic":true,"n":1}`,
		`{"key":"drained","dynamic":true,"n":40,"workers":2}`,
		`{"key":"plain","n":9}`, // a healthy key loses nothing
	} {
		var out SampleResponse
		resp, err := http.Post(data.URL+"/v1/sample", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("%s: status %d, decode error %v", body, resp.StatusCode, err)
		}
		if strings.Contains(body, "drained") && out.Returned != 0 {
			t.Fatalf("%s: an empty filter returned %d ids", body, out.Returned)
		}
		short += uint64(out.Requested - out.Returned)
	}
	if short != 48 {
		t.Fatalf("replies were short by %d ids in total, want 7+1+40", short)
	}
	if got := lostBy() - before; got != short {
		t.Fatalf("/v1/stats sample_draws_lost rose by %d, replies were short by %d", got, short)
	}
	_, metrics := get(t, admin.URL+"/metrics")
	want := "bst_db_sample_draws_lost_total " + strconv.FormatUint(before+short, 10)
	if !strings.Contains(metrics, want+"\n") {
		t.Fatalf("/metrics lacks %q", want)
	}
}

// TestEstimateCountersAreServed samples one key three times and reads the
// two estimate counters from both stats surfaces: the first request
// computes estimates, the later ones read them back from the version's
// index, and /v1/stats and /metrics report the same pair of numbers.
func TestEstimateCountersAreServed(t *testing.T) {
	srv, data, admin := newObsServer(t, Config{})
	widen(t, srv)
	for i := 0; i < 3; i++ {
		resp, err := http.Post(data.URL+"/v1/sample", "application/json", strings.NewReader(`{"key":"plain","n":8}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var st StatsResponse
	_, body := get(t, data.URL+"/v1/stats")
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.DB.EstimatesComputed == 0 || st.DB.EstimatesRemembered == 0 {
		t.Fatalf("/v1/stats after three samples of one key: %d estimates computed, %d remembered", st.DB.EstimatesComputed, st.DB.EstimatesRemembered)
	}
	_, metrics := get(t, admin.URL+"/metrics")
	for _, want := range []string{
		"bst_db_estimates_computed_total " + strconv.FormatUint(st.DB.EstimatesComputed, 10),
		"bst_db_estimates_remembered_total " + strconv.FormatUint(st.DB.EstimatesRemembered, 10),
	} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}
