package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/setdb"
	"repro/internal/wal"
)

// readAll drains and closes a response body.
func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// newDurableTestServer wraps a fresh WAL-backed store in an httptest
// server. The database starts empty; tests ingest through the API so
// every write flows through the durability layer.
func newDurableTestServer(t *testing.T, cfg Config) (*httptest.Server, *Server, *wal.Store) {
	t.Helper()
	opts, err := setdb.PlanOptions(0.9, 256, 100_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts.Pruned = true
	opts.Seed = 7
	store, err := wal.Open(t.TempDir(), func() (*setdb.DB, error) { return setdb.Open(opts) }, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	cfg.Durability = store
	s := New(store.DB(), cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s, store
}

func getStats(t *testing.T, ts *httptest.Server) StatsResponse {
	t.Helper()
	var st StatsResponse
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStatsDurabilitySection(t *testing.T) {
	ts, _, _ := newDurableTestServer(t, Config{})
	if code := post(t, ts, "/v1/add", `{"key":"a","ids":[1,2,3]}`, nil); code != 200 {
		t.Fatalf("add: status %d", code)
	}
	if code := post(t, ts, "/v1/add", `{"key":"b","ids":[4,5],"dynamic":true}`, nil); code != 200 {
		t.Fatalf("dynamic add: status %d", code)
	}
	st := getStats(t, ts)
	d := st.Durability
	if d == nil {
		t.Fatal("stats of a WAL-backed server carry no durability section")
	}
	if d.FsyncPolicy != string(wal.FsyncAlways) {
		t.Fatalf("fsync policy = %q, want %q", d.FsyncPolicy, wal.FsyncAlways)
	}
	if d.Seq != 2 {
		t.Fatalf("seq = %d after 2 writes", d.Seq)
	}
	if d.Segments < 1 || d.WALBytes <= 0 {
		t.Fatalf("segment accounting: %+v", d)
	}
	// The in-memory server must not fake one.
	plain, _ := newTestServer(t, Config{})
	if st := getStats(t, plain); st.Durability != nil {
		t.Fatalf("in-memory server reports durability: %+v", st.Durability)
	}
}

func TestSnapshotEndpointsHTTP(t *testing.T) {
	ts, _, store := newDurableTestServer(t, Config{})
	if code := post(t, ts, "/v1/add", `{"key":"s","ids":[10,20,30]}`, nil); code != 200 {
		t.Fatalf("add: status %d", code)
	}

	// GET downloads a live bundle that ReadBundle accepts.
	resp, err := http.Get(ts.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	bundle := readAll(t, resp)
	if resp.StatusCode != 200 || len(bundle) == 0 {
		t.Fatalf("GET /v1/snapshot: status %d, %d bytes", resp.StatusCode, len(bundle))
	}
	if _, err := setdb.ReadBundle(bytes.NewReader(bundle)); err != nil {
		t.Fatalf("downloaded bundle does not decode: %v", err)
	}

	// POST triggers an on-disk snapshot and reports the file it wrote.
	var trig SnapshotTriggerResponse
	if code := post(t, ts, "/v1/snapshot", "", &trig); code != 200 {
		t.Fatalf("POST /v1/snapshot: status %d", code)
	}
	if trig.Snapshot.File == "" || trig.Snapshot.Bytes <= 0 {
		t.Fatalf("snapshot info: %+v", trig.Snapshot)
	}
	if _, err := os.Stat(filepath.Join(store.Dir(), trig.Snapshot.File)); err != nil {
		t.Fatalf("reported snapshot file missing: %v", err)
	}
	after := getStats(t, ts)
	if after.Durability.Snapshots == 0 || after.Durability.LastSnapshotUnix == 0 {
		t.Fatalf("snapshot not reflected in stats: %+v", after.Durability)
	}

	// Unsupported method: 405 with both allowed methods advertised.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/snapshot", nil)
	mresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/snapshot: status %d", mresp.StatusCode)
	}
	allow := mresp.Header.Get("Allow")
	if !strings.Contains(allow, http.MethodGet) || !strings.Contains(allow, http.MethodPost) {
		t.Fatalf("Allow = %q", allow)
	}

	// Without a WAL the trigger is a 400, but the download still works.
	plain, _ := newTestServer(t, Config{})
	if code := post(t, plain, "/v1/snapshot", "", nil); code != http.StatusBadRequest {
		t.Fatalf("POST /v1/snapshot without WAL: status %d", code)
	}
	presp, err := http.Get(plain.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	pb := readAll(t, presp)
	if presp.StatusCode != 200 || len(pb) == 0 {
		t.Fatalf("GET /v1/snapshot without WAL: status %d, %d bytes", presp.StatusCode, len(pb))
	}
}

func TestRestoreHTTP(t *testing.T) {
	// Source: the shared test database (one plain set, one dynamic set).
	src, srcDB := newTestServer(t, Config{})
	resp, err := http.Get(src.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	bundle := readAll(t, resp)

	// Destination: a WAL-backed server with unrelated contents.
	dst, s, store := newDurableTestServer(t, Config{})
	if code := post(t, dst, "/v1/add", `{"key":"doomed","ids":[1]}`, nil); code != 200 {
		t.Fatalf("add: status %d", code)
	}
	var rr RestoreResponse
	if code := post(t, dst, "/v1/restore", string(bundle), &rr); code != 200 {
		t.Fatalf("POST /v1/restore: status %d (%+v)", code, rr)
	}
	if !rr.Restored || rr.Sets == 0 || rr.Dynamic == 0 {
		t.Fatalf("restore response: %+v", rr)
	}

	// The restored state serves the source's sets and dropped the old one.
	want, err := srcDB.Reconstruct("plain", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.DB().Reconstruct("plain", 0, nil)
	if err != nil {
		t.Fatalf("reconstructing restored set: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("restored set has %d ids, want %d", len(got), len(want))
	}
	var sr SampleResponse
	if code := post(t, dst, "/v1/sample", `{"key":"doomed"}`, &sr); code != http.StatusNotFound {
		t.Fatalf("pre-restore set survived: status %d", code)
	}
	var rec ReconstructResponse
	if code := post(t, dst, "/v1/reconstruct", `{"key":"plain"}`, &rec); code != http.StatusOK || rec.Count != len(want) {
		t.Fatalf("served reconstruction of the restored set: status %d, %d ids, want %d", code, rec.Count, len(want))
	}

	// Re-downloading gives the uploaded bundle back byte for byte (same
	// serialization).
	dresp, err := http.Get(dst.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	redownload := readAll(t, dresp)
	if !bytes.Equal(redownload, bundle) {
		t.Fatalf("re-downloaded bundle differs: %d vs %d bytes", len(redownload), len(bundle))
	}

	// Garbage is a 400, an oversized upload a 413.
	if code := post(t, dst, "/v1/restore", "not a bundle", nil); code != http.StatusBadRequest {
		t.Fatalf("garbage restore: status %d", code)
	}
	tiny, _, _ := newDurableTestServer(t, Config{MaxRestoreBytes: 16})
	if code := post(t, tiny, "/v1/restore", string(bundle), nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized restore: status %d", code)
	}

	// The restore is durable: the store reopened on its directory holds
	// the restored sets and not the one the restore replaced.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := wal.Open(store.Dir(), func() (*setdb.DB, error) { return nil, errors.New("a restored directory needs no fresh database") }, wal.Options{})
	if err != nil {
		t.Fatalf("reopening the restored directory: %v", err)
	}
	defer reopened.Close()
	if got, err := reopened.DB().Reconstruct("plain", 0, nil); err != nil || len(got) != len(want) {
		t.Fatalf("after a reboot the restored set has %d ids (err %v), want %d", len(got), err, len(want))
	}
	if reopened.DB().Filter("doomed") != nil {
		t.Fatal("after a reboot the set the restore replaced is back")
	}
}
