package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/setdb"
)

// newTestServer builds a small pruned database with one plain and one
// dynamic set, wrapped in an httptest server.
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *setdb.DB) {
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
	ids := make([]uint64, 0, 256)
	for i := uint64(0); i < 256; i++ {
		ids = append(ids, i*17%100_000)
	}
	if err := db.Add("plain", ids...); err != nil {
		t.Fatal(err)
	}
	if err := db.AddDynamic("dyn", 1, 2, 3, 4, 5); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db, cfg))
	t.Cleanup(ts.Close)
	return ts, db
}

// post sends body to path and decodes the JSON response into out (unless
// nil), returning the status code.
func post(t *testing.T, ts *httptest.Server, path, body string, out any) int {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decode: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestSampleSingleAndBatch(t *testing.T) {
	ts, db := newTestServer(t, Config{})
	set, err := db.Reconstruct("plain", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	member := map[uint64]bool{}
	for _, id := range set {
		member[id] = true
	}
	var single SampleResponse
	if code := post(t, ts, "/v1/sample", `{"key":"plain"}`, &single); code != 200 {
		t.Fatalf("single sample: status %d", code)
	}
	if single.Requested != 1 || single.Returned != len(single.IDs) {
		t.Fatalf("single sample shape: %+v", single)
	}
	// A client-supplied worker count, however absurd, is accepted and
	// ignored: a request draws on its own goroutine.
	var batch SampleResponse
	if code := post(t, ts, "/v1/sample", `{"key":"plain","n":200,"workers":99999}`, &batch); code != 200 {
		t.Fatalf("batch sample: status %d", code)
	}
	if batch.Requested != 200 || len(batch.IDs) == 0 {
		t.Fatalf("batch sample shape: %+v", batch)
	}
	for _, id := range batch.IDs {
		if !member[id] {
			t.Fatalf("sampled id %d not in the stored set", id)
		}
	}
}

func TestSampleUniformAndDynamic(t *testing.T) {
	ts, db := newTestServer(t, Config{})
	stats := func() StatsResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	var uni SampleResponse
	if code := post(t, ts, "/v1/sample", `{"key":"plain","n":50,"uniform":true}`, &uni); code != 200 {
		t.Fatalf("uniform sample: status %d", code)
	}
	if uni.Returned != 50 || len(uni.IDs) != 50 {
		t.Fatalf("uniform sample returned %d of 50", len(uni.IDs))
	}
	for _, id := range uni.IDs {
		if !db.Filter("plain").Contains(id) {
			t.Fatalf("uniform sample %d is not a positive of its key", id)
		}
	}
	// A fresh version's first uniform request pays for its scan and is
	// served from it: every draw a pick, none a descent.
	if st := stats(); st.DB.PositivesScans != 1 || st.DB.DrawsWarm != 50 || st.DB.DrawsDescended != 0 {
		t.Fatalf("after one uniform request: %d scans, %d picks, %d descents", st.DB.PositivesScans, st.DB.DrawsWarm, st.DB.DrawsDescended)
	}
	var dyn SampleResponse
	if code := post(t, ts, "/v1/sample", `{"key":"dyn","n":20,"dynamic":true}`, &dyn); code != 200 {
		t.Fatalf("dynamic sample: status %d", code)
	}
	for _, id := range dyn.IDs {
		if id < 1 || id > 5 {
			t.Fatalf("dynamic sample %d outside {1..5}", id)
		}
	}
	// Uniform serves a removable key too, flagged or not.
	for _, body := range []string{`{"key":"dyn","n":20,"uniform":true,"dynamic":true}`, `{"key":"dyn","n":20,"uniform":true}`} {
		var got SampleResponse
		if code := post(t, ts, "/v1/sample", body, &got); code != 200 || got.Returned != 20 {
			t.Fatalf("%s: status %d, %d ids", body, code, got.Returned)
		}
		for _, id := range got.IDs {
			if !db.Filter("dyn").Contains(id) {
				t.Fatalf("%s: %d is not a positive of its key", body, id)
			}
		}
	}
	// A present key that answers for no id has nothing to pick: 200, and
	// every draw asked for reported lost.
	if err := db.AddDynamic("hollow", 9); err != nil {
		t.Fatal(err)
	}
	if err := db.RemoveDynamic("hollow", 9); err != nil {
		t.Fatal(err)
	}
	lost := stats().DB.SampleDrawsLost
	var none SampleResponse
	if code := post(t, ts, "/v1/sample", `{"key":"hollow","n":7,"uniform":true}`, &none); code != 200 || none.Requested != 7 || none.Returned != 0 {
		t.Fatalf("uniform sample of a key with no positive: status %d, %+v", code, none)
	}
	if st := stats(); st.DB.SampleDrawsLost != lost+7 {
		t.Fatalf("7 draws with nothing to pick moved sample_draws_lost by %d", st.DB.SampleDrawsLost-lost)
	}
}

// TestSampleUniformSurvivesDeleteReAdd covers a key's second lifetime: what
// the first lifetime's version had scanned went with the deleted key, and a
// uniform request after Delete+Add is served by the new lifetime alone.
func TestSampleUniformSurvivesDeleteReAdd(t *testing.T) {
	ts, db := newTestServer(t, Config{})
	if code := post(t, ts, "/v1/sample", `{"key":"plain","n":5,"uniform":true}`, nil); code != 200 {
		t.Fatalf("warmup: status %d", code)
	}
	if !db.Delete("plain") {
		t.Fatal("delete failed")
	}
	if code := post(t, ts, "/v1/sample", `{"key":"plain","n":5,"uniform":true}`, nil); code != 404 {
		t.Fatalf("uniform sample of a deleted key: status %d, want 404", code)
	}
	if err := db.Add("plain", 10, 20, 30); err != nil {
		t.Fatal(err)
	}
	var got SampleResponse
	if code := post(t, ts, "/v1/sample", `{"key":"plain","n":5,"uniform":true}`, &got); code != 200 {
		t.Fatalf("post-re-add: status %d", code)
	}
	for _, id := range got.IDs {
		if id != 10 && id != 20 && id != 30 {
			t.Fatalf("sampled %d from the dead key lifetime", id)
		}
	}
	if st := db.Stats(); st.PositivesScans != 2 || st.DrawsWarm != 10 {
		t.Fatalf("two lifetimes drawn from exactly: %d scans, %d picks; want 2 and 10", st.PositivesScans, st.DrawsWarm)
	}
}

func TestSampleStreamNDJSON(t *testing.T) {
	ts, _ := newTestServer(t, Config{StreamChunk: 64})
	resp, err := http.Post(ts.URL+"/v1/sample", "application/json",
		strings.NewReader(`{"key":"plain","n":300,"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var ids, done int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Error != "":
			t.Fatalf("in-band error: %s", line.Error)
		case line.Done:
			done++
		default:
			ids++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if done != 1 || ids == 0 || ids > 300 {
		t.Fatalf("stream shape: %d ids, %d done markers", ids, done)
	}
	// A bad key in stream mode still gets a real HTTP error status.
	if code := post(t, ts, "/v1/sample", `{"key":"nope","stream":true}`, nil); code != 404 {
		t.Fatalf("stream missing key: status %d, want 404", code)
	}
}

// TestSampleStreamEncodesIDZero pins the NDJSON encoding of id 0: it
// must appear as an explicit {"id":0} line, not an empty object.
func TestSampleStreamEncodesIDZero(t *testing.T) {
	ts, db := newTestServer(t, Config{})
	if err := db.Add("zero", 0); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sample", "application/json",
		strings.NewReader(`{"key":"zero","n":4,"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream too short: %q", body)
	}
	for _, line := range lines[:len(lines)-1] {
		if line != `{"id":0}` {
			t.Fatalf("id-0 line encoded as %q", line)
		}
	}
	if lines[len(lines)-1] != `{"done":true}` {
		t.Fatalf("missing done terminator: %q", lines[len(lines)-1])
	}
}

func TestReconstructAndIntersection(t *testing.T) {
	ts, db := newTestServer(t, Config{})
	want, err := db.Reconstruct("plain", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rec ReconstructResponse
	if code := post(t, ts, "/v1/reconstruct", `{"key":"plain"}`, &rec); code != 200 {
		t.Fatalf("reconstruct: status %d", code)
	}
	if rec.Count != len(want) || len(rec.IDs) != len(want) {
		t.Fatalf("reconstruct count %d, want %d", rec.Count, len(want))
	}
	var dyn ReconstructResponse
	if code := post(t, ts, "/v1/reconstruct", `{"key":"dyn","dynamic":true}`, &dyn); code != 200 {
		t.Fatalf("dynamic reconstruct: status %d", code)
	}
	if dyn.Count < 5 {
		t.Fatalf("dynamic reconstruct lost members: %+v", dyn)
	}
	if err := db.Add("other", want[0], want[1], 99_999); err != nil {
		t.Fatal(err)
	}
	var inter IntersectionResponse
	if code := post(t, ts, "/v1/intersection", `{"key_a":"plain","key_b":"other"}`, &inter); code != 200 {
		t.Fatalf("intersection: status %d", code)
	}
	if inter.Estimate < 0.5 {
		t.Fatalf("intersection estimate %.3f implausibly low (true ≥ 2)", inter.Estimate)
	}
	if code := post(t, ts, "/v1/intersection", `{"key_a":"plain","key_b":"ghost"}`, nil); code != 404 {
		t.Fatalf("intersection with missing key: status %d, want 404", code)
	}
}

func TestAddRemoveLifecycle(t *testing.T) {
	ts, db := newTestServer(t, Config{})
	if code := post(t, ts, "/v1/add", `{"key":"web","ids":[7,8,9],"dynamic":true}`, nil); code != 200 {
		t.Fatalf("add dynamic: status %d", code)
	}
	if code := post(t, ts, "/v1/remove", `{"key":"web","ids":[8]}`, nil); code != 200 {
		t.Fatalf("remove: status %d", code)
	}
	got, err := db.Reconstruct("web", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range got {
		if id == 8 {
			t.Fatal("removed id still present")
		}
	}
	// Plain/dynamic kind clash is a 409 both ways.
	if code := post(t, ts, "/v1/add", `{"key":"web","ids":[1]}`, nil); code != 409 {
		t.Fatalf("plain add onto dynamic key: status %d, want 409", code)
	}
	if code := post(t, ts, "/v1/add", `{"key":"plain","ids":[1],"dynamic":true}`, nil); code != 409 {
		t.Fatalf("dynamic add onto plain key: status %d, want 409", code)
	}
	// Namespace violation is a 400.
	if code := post(t, ts, "/v1/add", `{"key":"web2","ids":[999999999]}`, nil); code != 400 {
		t.Fatalf("out-of-namespace add: status %d, want 400", code)
	}
}

// TestKeyLengthBound: the longest key a bundle can hold is served and
// saved; one byte more is a 400 that stores nothing, so a later Save, a
// snapshot or a WAL replay never meets a key it cannot write.
func TestKeyLengthBound(t *testing.T) {
	ts, db := newTestServer(t, Config{})
	longest := strings.Repeat("k", setdb.MaxKeyLen)
	var eb errorBody
	if code := post(t, ts, "/v1/add", fmt.Sprintf(`{"key":"%sk","ids":[1]}`, longest), &eb); code != http.StatusBadRequest || !strings.Contains(eb.Error, "key too long") {
		t.Fatalf("a %d-byte key: status %d, %q; want 400, key too long", setdb.MaxKeyLen+1, code, eb.Error)
	}
	if n := db.Len(); n != 2 {
		t.Fatalf("a refused add left %d keys, want the fixture's 2", n)
	}
	if code := post(t, ts, "/v1/add", fmt.Sprintf(`{"key":"%s","ids":[1,2,3]}`, longest), nil); code != http.StatusOK {
		t.Fatalf("a %d-byte key: status %d", setdb.MaxKeyLen, code)
	}
	path := filepath.Join(t.TempDir(), "db.snap")
	if err := db.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := setdb.Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, id := range []uint64{1, 2, 3} {
		if ok, err := loaded.Contains(longest, id); err != nil || !ok {
			t.Fatalf("the loaded database lost id %d of the longest key (err %v)", id, err)
		}
	}
}

// TestErrorPaths covers what only the HTTP/JSON codec can get wrong:
// malformed, unknown-field and trailing JSON, an oversized body, and
// method gating. What a request means once decoded — limits, missing and
// unknown keys, all-or-nothing removes — is the behaviour suite's
// (behaviour_test.go), which runs it against both codecs.
func TestErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxBodyBytes: 512})

	var eb errorBody
	if code := post(t, ts, "/v1/sample", `{"key":`, &eb); code != 400 || eb.Error == "" {
		t.Fatalf("malformed JSON: status %d, body %+v", code, eb)
	}
	// A typo'd field name must not silently select the wrong mode.
	if code := post(t, ts, "/v1/add", `{"key":"typo","ids":[1],"dynamc":true}`, nil); code != 400 {
		t.Fatalf("unknown JSON field: status %d, want 400", code)
	}
	// A concatenated second body must not be silently dropped.
	if code := post(t, ts, "/v1/add", `{"key":"a","ids":[1]}{"key":"b","ids":[2]}`, nil); code != 400 {
		t.Fatalf("trailing JSON data: status %d, want 400", code)
	}
	// Oversized body (beyond MaxBodyBytes) → 413.
	big := fmt.Sprintf(`{"key":"big","ids":[%s1]}`, strings.Repeat("1,", 400))
	if code := post(t, ts, "/v1/add", big, nil); code != 413 {
		t.Fatalf("oversized body: status %d, want 413", code)
	}

	// Wrong methods → 405 with Allow.
	resp, err := http.Get(ts.URL + "/v1/sample")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 405 || resp.Header.Get("Allow") != "POST" {
		t.Fatalf("GET sample: status %d allow %q", resp.StatusCode, resp.Header.Get("Allow"))
	}
	resp, err = http.Post(ts.URL+"/v1/stats", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 405 || resp.Header.Get("Allow") != "GET" {
		t.Fatalf("POST stats: status %d allow %q", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

func TestStatsIntrospection(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	post(t, ts, "/v1/sample", `{"key":"plain","n":10}`, nil)
	post(t, ts, "/v1/sample", `{"key":"ghost"}`, nil) // one error

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.DB.Sets != 1 || st.DB.DynamicSets != 1 {
		t.Fatalf("db stats wrong: %+v", st.DB)
	}
	if st.DB.TreeNodes == 0 {
		t.Fatalf("tree introspection empty: %+v", st.DB)
	}
	if !st.DB.TreePruned || st.DB.GrowthEpoch == 0 {
		t.Fatalf("growth epochs not visible on a pruned tree: %+v", st.DB)
	}
	if st.Options.Namespace != 100_000 || st.Options.K != 3 {
		t.Fatalf("options not echoed: %+v", st.Options)
	}
	sm := st.Endpoints["/v1/sample"]
	if sm.Requests != 2 || sm.Errors != 1 || sm.AvgLatencyUS <= 0 || sm.QPS <= 0 {
		t.Fatalf("sample endpoint metrics wrong: %+v", sm)
	}
	if st.UptimeSeconds <= 0 {
		t.Fatalf("uptime %v", st.UptimeSeconds)
	}
}

// TestConcurrentAddSample hammers /v1/add and /v1/sample (plus the
// dynamic write path) over real HTTP from many goroutines. Under -race
// this is the serving-layer regression test for the copy-on-write
// guarantees: no request may observe a filter mid-update.
func TestConcurrentAddSample(t *testing.T) {
	ts, db := newTestServer(t, Config{})
	if err := db.AddDynamic("churn", 50, 51, 52); err != nil {
		t.Fatal(err)
	}
	client := ts.Client()
	do := func(path, body string) int {
		resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				id := (w*1000 + i*37) % 100_000
				switch i % 4 {
				case 0:
					if code := do("/v1/add", fmt.Sprintf(`{"key":"plain","ids":[%d]}`, id)); code != 200 {
						t.Errorf("add: status %d", code)
					}
				case 1:
					if code := do("/v1/sample", `{"key":"plain","n":8}`); code != 200 {
						t.Errorf("sample: status %d", code)
					}
				case 2:
					if code := do("/v1/add", fmt.Sprintf(`{"key":"churn","ids":[%d],"dynamic":true}`, id)); code != 200 {
						t.Errorf("dynamic add: status %d", code)
					}
				default:
					if code := do("/v1/sample", `{"key":"churn","n":4,"dynamic":true}`); code != 200 {
						t.Errorf("dynamic sample: status %d", code)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Every plain id written above must now be present.
	for w := 0; w < workers; w++ {
		for i := 0; i < 30; i += 4 {
			id := uint64((w*1000 + i*37) % 100_000)
			ok, err := db.Contains("plain", id)
			if err != nil || !ok {
				t.Fatalf("id %d written over HTTP not visible (ok=%v err=%v)", id, ok, err)
			}
		}
	}
}

// TestAddBatch covers the group-commit shape of /v1/add: multi-key
// batches land atomically through setdb.ApplyBatch, mixing shapes is a
// 400, clashes roll the whole batch back with a 409, and the write
// coalescing shows up in /v1/stats as fewer publishes than writes.
func TestAddBatch(t *testing.T) {
	ts, db := newTestServer(t, Config{})
	var ar AddResponse
	body := `{"sets":[{"key":"b1","ids":[1,2]},{"key":"b2","ids":[3]},{"key":"bd","ids":[4,5],"dynamic":true}]}`
	if code := post(t, ts, "/v1/add", body, &ar); code != 200 {
		t.Fatalf("batch add: status %d", code)
	}
	if ar.Added != 5 || ar.Keys != 3 {
		t.Fatalf("batch ack wrong: %+v", ar)
	}
	for key, id := range map[string]uint64{"b1": 1, "b2": 3} {
		if ok, err := db.Contains(key, id); err != nil || !ok {
			t.Fatalf("%s should contain %d (ok=%v err=%v)", key, id, ok, err)
		}
	}
	if ok, err := db.Contains("bd", 4); err != nil || !ok {
		t.Fatalf("bd should contain 4 (ok=%v err=%v)", ok, err)
	}

	// Mixing the single-key and batch shapes is ambiguous → 400.
	if code := post(t, ts, "/v1/add", `{"key":"x","ids":[1],"sets":[{"key":"y","ids":[2]}]}`, nil); code != 400 {
		t.Fatalf("mixed shapes: status %d, want 400", code)
	}
	if code := post(t, ts, "/v1/add", `{"sets":[{"key":"","ids":[1]}]}`, nil); code != 400 {
		t.Fatalf("batch with empty key: status %d, want 400", code)
	}

	// A clash anywhere rolls back the whole batch: "fresh" must not
	// appear even though its write precedes the clashing one.
	if code := post(t, ts, "/v1/add", `{"sets":[{"key":"fresh","ids":[9]},{"key":"dyn","ids":[1]}]}`, nil); code != 409 {
		t.Fatalf("clashing batch: status %d, want 409", code)
	}
	if db.Filter("fresh") != nil {
		t.Fatal("aborted batch leaked a key")
	}

	// The batch total obeys MaxBatch, and the set count its own (tighter)
	// MaxBatchSets cap — many near-empty sets are not a cheap request:
	// each allocates a full-size filter inside the locked group commit.
	ts2, _ := newTestServer(t, Config{MaxBatch: 3, MaxBatchSets: 2})
	if code := post(t, ts2, "/v1/add", `{"sets":[{"key":"a","ids":[1,2]},{"key":"b","ids":[3,4]}]}`, nil); code != 413 {
		t.Fatalf("oversized batch total: status %d, want 413", code)
	}
	if code := post(t, ts2, "/v1/add", `{"sets":[{"key":"a","ids":[]},{"key":"b","ids":[]},{"key":"c","ids":[]}]}`, nil); code != 413 {
		t.Fatalf("oversized set count: status %d, want 413", code)
	}
}

// TestStatsWriteAmplification checks the /v1/stats write counter: a batch
// add counts each of its writes. (No write copies key-map state, so there
// is no copy counter to check.)
func TestStatsWriteAmplification(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	var sets []string
	for i := 0; i < 4; i++ {
		sets = append(sets, fmt.Sprintf(`{"key":"w%d","ids":[%d]}`, i, i))
	}
	before := getStats(t, ts).DB.StateWrites
	if code := post(t, ts, "/v1/add", fmt.Sprintf(`{"sets":[%s]}`, strings.Join(sets, ",")), nil); code != 200 {
		t.Fatalf("batch add: status %d", code)
	}
	if got := getStats(t, ts).DB.StateWrites; got != before+4 {
		t.Fatalf("state_writes = %d after a 4-write batch, want %d", got, before+4)
	}
}
