package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/setdb"
	"repro/internal/wire"
)

// The behaviour suite: one table of protocol-neutral requests with the
// status each must end in, run against both codecs. A row is the
// operation layer's contract (ops.go); the two drivers below only say
// how the same request is framed — an HTTP POST whose answer is a
// status, a wire.Client call whose answer is an ErrorResult code (the
// numbers are shared). The snapshot and restore rows run over HTTP only:
// the binary protocol has no opcode for them. Codec-only behaviour
// (malformed JSON, 405s, unknown opcodes, frame limits) stays in
// TestErrorPaths and the TestBinary* tests.

// behaviourCall is one request, described without a framing.
type behaviourCall struct {
	op      string // sample, stream, reconstruct, intersection, add, remove; snapshot, restore (HTTP only)
	key     string
	keyB    string // intersection only
	n       int
	dynamic bool
	uniform bool
	ids     []uint64
	sets    []AddSet // add only; nil sends the single-key shape over HTTP
	bundle  []byte   // restore only
}

type behaviourRow struct {
	name  string
	call  behaviourCall
	want  int                              // HTTP status == wire error code; 200 is success
	check func(t *testing.T, db *setdb.DB) // optional: database state after the call
}

// behaviourLimits are the limits the rows are written against.
var behaviourLimits = Config{MaxBatch: 100, MaxBatchSets: 2, MaxStreamBatch: 1000}

func idRange(n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	return ids
}

func dynUnchanged(t *testing.T, db *setdb.DB) {
	t.Helper()
	for id := uint64(1); id <= 5; id++ {
		if ok, err := db.Contains("dyn", id); err != nil || !ok {
			t.Errorf("failed remove mutated the set: %d present=%v err=%v", id, ok, err)
		}
	}
}

// brimStraddlesTheCap is the premise of the "brim" row: estimated at or
// under MaxBatch, reconstructed above it.
func brimStraddlesTheCap(t *testing.T, db *setdb.DB) {
	t.Helper()
	est := db.Filter("brim").EstimateCardinality()
	ids, err := db.Reconstruct("brim", 0, nil)
	if limit := behaviourLimits.MaxBatch; err != nil || est > float64(limit) || len(ids) <= limit {
		t.Errorf("brim is estimated at %.1f and reconstructs to %d ids (err %v); the row needs MaxBatch = %d between the two", est, len(ids), err, limit)
	}
}

var behaviourRows = []behaviourRow{
	// The served paths.
	{name: "sample", call: behaviourCall{op: "sample", key: "plain", n: 10}, want: 200},
	{name: "sample default n", call: behaviourCall{op: "sample", key: "plain"}, want: 200},
	{name: "sample dynamic", call: behaviourCall{op: "sample", key: "dyn", n: 5, dynamic: true}, want: 200},
	{name: "sample uniform", call: behaviourCall{op: "sample", key: "plain", n: 5, uniform: true}, want: 200},
	{name: "sample at MaxBatch", call: behaviourCall{op: "sample", key: "plain", n: 100}, want: 200},
	{name: "stream over MaxBatch", call: behaviourCall{op: "stream", key: "plain", n: 500}, want: 200},
	{name: "reconstruct dynamic", call: behaviourCall{op: "reconstruct", key: "dyn", dynamic: true}, want: 200},
	{name: "intersection", call: behaviourCall{op: "intersection", key: "plain", keyB: "plain"}, want: 200},
	{name: "add", call: behaviourCall{op: "add", key: "fresh", ids: []uint64{1, 2, 3}}, want: 200},
	{name: "add batch", call: behaviourCall{op: "add", sets: []AddSet{{Key: "b1", IDs: []uint64{1}}, {Key: "b2", IDs: []uint64{2}, Dynamic: true}}}, want: 200},
	{name: "remove", call: behaviourCall{op: "remove", key: "dyn2", ids: []uint64{7}}, want: 200},

	// One key space: a read serves the key whatever kind of set it holds,
	// and whatever the deprecated dynamic flag says about it.
	{name: "sample dynamic key unflagged", call: behaviourCall{op: "sample", key: "dyn", n: 5}, want: 200},
	{name: "stream dynamic key unflagged", call: behaviourCall{op: "stream", key: "dyn", n: 150}, want: 200},
	{name: "reconstruct dynamic key unflagged", call: behaviourCall{op: "reconstruct", key: "dyn"}, want: 200},
	{name: "sample plain key as dynamic", call: behaviourCall{op: "sample", key: "plain", n: 1, dynamic: true}, want: 200},
	{name: "intersection plain with dynamic", call: behaviourCall{op: "intersection", key: "plain", keyB: "dyn"}, want: 200},
	// Exact draws pick from the pinned version's positives, which a
	// removable set's query view has like any other.
	{name: "uniform+dynamic", call: behaviourCall{op: "sample", key: "dyn", n: 1, uniform: true, dynamic: true}, want: 200},
	{name: "uniform on dynamic key unflagged", call: behaviourCall{op: "sample", key: "dyn", n: 1, uniform: true}, want: 200},
	{name: "uniform stream on dynamic key", call: behaviourCall{op: "stream", key: "dyn", n: 150, uniform: true}, want: 200},

	// Unknown keys and kind clashes.
	{name: "unknown key", call: behaviourCall{op: "sample", key: "nope", n: 1}, want: 404},
	{name: "stream unknown key", call: behaviourCall{op: "stream", key: "nope", n: 10}, want: 404},
	{name: "reconstruct unknown key", call: behaviourCall{op: "reconstruct", key: "nope"}, want: 404},
	{name: "intersection unknown key", call: behaviourCall{op: "intersection", key: "plain", keyB: "nope"}, want: 404},
	{name: "uniform unknown key", call: behaviourCall{op: "sample", key: "nope", n: 1, uniform: true}, want: 404},
	{name: "add kind clash", call: behaviourCall{op: "add", key: "dyn", ids: []uint64{1}}, want: 409},
	{name: "add out of namespace", call: behaviourCall{op: "add", key: "far", ids: []uint64{999_999_999}}, want: 400},

	// Sample sizes.
	{name: "oversized n", call: behaviourCall{op: "sample", key: "plain", n: 101}, want: 413},
	{name: "stream over MaxStreamBatch", call: behaviourCall{op: "stream", key: "plain", n: 1001}, want: 413},
	{name: "negative n", call: behaviourCall{op: "sample", key: "plain", n: -1}, want: 400}, // wire: N ≥ 2⁶³

	// Missing keys.
	{name: "sample missing key", call: behaviourCall{op: "sample", n: 3}, want: 400},
	{name: "stream missing key", call: behaviourCall{op: "stream", n: 3}, want: 400},
	{name: "reconstruct missing key", call: behaviourCall{op: "reconstruct"}, want: 400},
	{name: "intersection missing key", call: behaviourCall{op: "intersection", key: "plain"}, want: 400},
	{name: "add missing key", call: behaviourCall{op: "add", ids: []uint64{1}}, want: 400},
	{name: "add batch missing key", call: behaviourCall{op: "add", sets: []AddSet{{IDs: []uint64{1}}}}, want: 400},
	{name: "remove missing key", call: behaviourCall{op: "remove", ids: []uint64{1}}, want: 400},
	{name: "empty add", call: behaviourCall{op: "add", sets: []AddSet{}}, want: 400},

	// Remove is all-or-nothing and serves dynamic sets only.
	{name: "remove non-member", call: behaviourCall{op: "remove", key: "dyn", ids: []uint64{3, 77777}}, want: 409, check: dynUnchanged},
	{name: "remove out of namespace", call: behaviourCall{op: "remove", key: "dyn", ids: []uint64{999_999_999}}, want: 400, check: dynUnchanged},
	{name: "remove missing set", call: behaviourCall{op: "remove", key: "ghost", ids: []uint64{1}}, want: 404},
	{name: "remove plain set", call: behaviourCall{op: "remove", key: "plain", ids: []uint64{1}}, want: 404},

	// Write batch limits.
	{name: "add ids over MaxBatch", call: behaviourCall{op: "add", key: "big", ids: idRange(101)}, want: 413},
	{name: "add batch ids over MaxBatch", call: behaviourCall{op: "add", sets: []AddSet{{Key: "h1", IDs: idRange(60)}, {Key: "h2", IDs: idRange(60)}}}, want: 413},
	{name: "remove ids over MaxBatch", call: behaviourCall{op: "remove", key: "dyn", ids: idRange(101)}, want: 413},
	{name: "sets over MaxBatchSets", call: behaviourCall{op: "add", sets: []AddSet{{Key: "s1"}, {Key: "s2"}, {Key: "s3"}}}, want: 413},

	// "plain" holds 256 ids, estimated above MaxBatch.
	{name: "reconstruct over the cap", call: behaviourCall{op: "reconstruct", key: "plain"}, want: 413},

	// "brim" holds 102 ids its filter estimates at 99.6: under MaxBatch by
	// the estimate, over it by what the walk returns. The cap is on the reply.
	{name: "reconstruct reply over the cap", call: behaviourCall{op: "reconstruct", key: "brim"}, want: 413, check: brimStraddlesTheCap},

	// Durability operations on a server that has no WAL.
	{name: "snapshot without a WAL", call: behaviourCall{op: "snapshot"}, want: 400},
	{name: "bad restore bundle", call: behaviourCall{op: "restore", bundle: []byte("not a bundle")}, want: 400},

	// A bundle no write path could have produced is refused whole, and the
	// database being served goes on being served.
	{name: "restore bundle binding a key twice", call: behaviourCall{op: "restore", bundle: clashingBundle()}, want: 400},
	{name: "refused restore left the database", call: behaviourCall{op: "sample", key: "plain", n: 1}, want: 200, check: dynUnchanged},
}

// clashingBundle is the bundle of a database holding plain "k" and dynamic
// "d", with "d" renamed to "k" in place: well-formed, and binding one key in
// both sections.
func clashingBundle() []byte {
	db, err := setdb.Open(setdb.Options{Namespace: 1024, Bits: 256, K: 3, TreeDepth: 3})
	if err == nil {
		err = db.AddMany(setdb.Write{Key: "k", IDs: []uint64{1}}, setdb.Write{Key: "d", IDs: []uint64{4}, Dynamic: true})
	}
	var buf bytes.Buffer
	if err == nil {
		_, err = db.SnapshotView().WriteBundleTo(&buf)
	}
	d := bytes.LastIndex(buf.Bytes(), []byte{1, 0, 'd'}) // the key as a section stores it: length, then bytes
	if err != nil || d < 0 {
		panic(fmt.Sprintf("building the clashing bundle: err %v, key at %d", err, d))
	}
	buf.Bytes()[d+2] = 'k'
	return buf.Bytes()
}

// behaviourDriver frames one call and reports the status it ended in.
type behaviourDriver func(t *testing.T, row int, c behaviourCall) int

// runBehaviourSuite serves the shared fixture (plus "dyn2", a dynamic
// set the remove row may shrink, and "brim", the set that straddles the
// reconstruction cap) through driver and checks every row whose operation
// the driver can frame: all of them over HTTP, all but snapshot and
// restore otherwise.
func runBehaviourSuite(t *testing.T, db *setdb.DB, overHTTP bool, driver behaviourDriver) {
	if err := db.AddDynamic("dyn2", 7, 8, 9); err != nil {
		t.Fatal(err)
	}
	brim := idRange(102)
	for i := range brim {
		brim[i] *= 35
	}
	if err := db.Add("brim", brim...); err != nil {
		t.Fatal(err)
	}
	for i, row := range behaviourRows {
		if !overHTTP && (row.call.op == "snapshot" || row.call.op == "restore") {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			if got := driver(t, i, row.call); got != row.want {
				t.Fatalf("%+v: status %d, want %d", row.call, got, row.want)
			}
			if row.check != nil {
				row.check(t, db)
			}
		})
	}
}

// TestHTTPErrorMapping runs the suite over HTTP/JSON. Every request
// carries its own X-Request-ID, and every error must echo it in the
// body and in the response header.
func TestHTTPErrorMapping(t *testing.T) {
	ts, db := newTestServer(t, behaviourLimits)
	runBehaviourSuite(t, db, true, func(t *testing.T, row int, c behaviourCall) int {
		var path string
		var body any
		switch c.op {
		case "sample", "stream":
			path, body = "/v1/sample", SampleRequest{Key: c.key, N: c.n, Dynamic: c.dynamic, Uniform: c.uniform, Stream: c.op == "stream"}
		case "reconstruct":
			path, body = "/v1/reconstruct", ReconstructRequest{Key: c.key, Dynamic: c.dynamic}
		case "intersection":
			path, body = "/v1/intersection", IntersectionRequest{KeyA: c.key, KeyB: c.keyB}
		case "add":
			path, body = "/v1/add", AddRequest{Key: c.key, IDs: c.ids, Sets: c.sets}
		case "remove":
			path, body = "/v1/remove", RemoveRequest{Key: c.key, IDs: c.ids}
		case "snapshot":
			path = "/v1/snapshot"
		case "restore":
			path = "/v1/restore"
		}
		payload := c.bundle
		if body != nil {
			var err error
			if payload, err = json.Marshal(body); err != nil {
				t.Fatal(err)
			}
		}
		return postWithID(t, ts, path, payload, fmt.Sprintf("suite-%d", row))
	})
}

// postWithID posts payload under a caller-chosen request id and returns
// the status, checking that an error response echoes the id.
func postWithID(t *testing.T, ts *httptest.Server, path string, payload []byte, rid string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == "" {
			t.Fatalf("%s: status %d with a body that is no error envelope: %q", path, resp.StatusCode, raw)
		}
		if eb.RequestID != rid || resp.Header.Get("X-Request-ID") != rid {
			t.Errorf("%s: error echoes request id %q (header %q), want %q", path, eb.RequestID, resp.Header.Get("X-Request-ID"), rid)
		}
	} else if strings.Contains(string(raw), `"error"`) {
		t.Errorf("%s: 200 carrying an in-band error: %q", path, raw)
	}
	return resp.StatusCode
}

// TestBinaryErrorMapping runs the suite over the wire protocol. The
// request id needs no assertion of its own: wire.Client refuses any
// response frame whose id differs from the request's, so an ErrorResult
// reaching the caller is an error frame that echoed it.
func TestBinaryErrorMapping(t *testing.T) {
	s, addr := newBinaryTestServer(t, behaviourLimits)
	c := dialTestClient(t, addr)
	runBehaviourSuite(t, s.DB(), false, func(t *testing.T, _ int, call behaviourCall) int {
		opts := wire.SampleOpts{Dynamic: call.dynamic, Uniform: call.uniform}
		var err error
		switch call.op {
		case "sample":
			_, err = c.Sample(call.key, call.n, opts)
		case "stream":
			err = c.SampleStream(call.key, call.n, opts, 0, func([]uint64) error { return nil })
		case "reconstruct":
			_, err = c.Reconstruct(call.key, call.dynamic)
		case "intersection":
			_, err = c.Intersection(call.key, call.keyB)
		case "add":
			sets := []wire.AddSet{{Key: call.key, IDs: call.ids}}
			if call.sets != nil {
				sets = sets[:0]
				for _, set := range call.sets {
					sets = append(sets, wire.AddSet{Key: set.Key, IDs: set.IDs, Dynamic: set.Dynamic})
				}
			}
			_, err = c.Add(sets...)
		case "remove":
			_, err = c.Remove(call.key, call.ids)
		}
		var er wire.ErrorResult
		switch {
		case err == nil:
			return http.StatusOK
		case errors.As(err, &er):
			return int(er.Code)
		}
		t.Fatalf("%+v: %v, want a wire.ErrorResult", call, err)
		return 0
	})
}

// TestWriteBudgetShedsWritesOnly exhausts the write sub-budget and
// checks, on both protocols, that admission refuses writes (503 with
// Retry-After, BUSY) while reads still pass — and gives the budget back.
func TestWriteBudgetShedsWritesOnly(t *testing.T) {
	s, addr := newBinaryTestServer(t, Config{MaxWrites: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := dialTestClient(t, addr)
	if !s.writeGate.tryAcquire() {
		t.Fatal("fresh write budget refused")
	}
	resp, err := http.Post(ts.URL+"/v1/add", "application/json", strings.NewReader(`{"key":"w","ids":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if err := json.Unmarshal(readAll(t, resp), &eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" || !strings.Contains(eb.Error, "write budget") || eb.RequestID == "" {
		t.Fatalf("HTTP write with the budget gone: status %d, Retry-After %q, body %+v", resp.StatusCode, resp.Header.Get("Retry-After"), eb)
	}
	if _, err := c.Add(wire.AddSet{Key: "w", IDs: []uint64{1}}); !errors.Is(err, wire.ErrBusy) {
		t.Fatalf("wire write with the budget gone: %v, want ErrBusy", err)
	}
	if s.inflight.inUse() != 0 {
		t.Fatalf("a shed write kept %d global slots", s.inflight.inUse())
	}
	if code := post(t, ts, "/v1/sample", `{"key":"plain"}`, nil); code != http.StatusOK {
		t.Fatalf("HTTP read with the write budget gone: status %d", code)
	}
	if _, err := c.Sample("plain", 1, wire.SampleOpts{}); err != nil {
		t.Fatalf("wire read with the write budget gone: %v", err)
	}
	if got := s.metrics["/v1/add"].shed.Load() + s.metrics["bin:add"].shed.Load(); got != 2 {
		t.Fatalf("%d sheds counted on the add endpoints, want 2", got)
	}
	s.writeGate.release()
	if code := post(t, ts, "/v1/add", `{"key":"w","ids":[1]}`, nil); code != http.StatusOK {
		t.Fatalf("HTTP write after release: status %d", code)
	}
	if _, err := c.Add(wire.AddSet{Key: "w", IDs: []uint64{2}}); err != nil {
		t.Fatalf("wire write after release: %v", err)
	}
}
