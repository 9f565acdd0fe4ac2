package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/setdb"
	"repro/internal/wire"
)

// encodingJSON is what every hand-appended reply is held to: v through an
// encoding/json Encoder, its trailing newline included.
func encodingJSON(t testing.TB, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// appended is v through the reply buffer.
func appended(t testing.TB, v any) string {
	t.Helper()
	rb := new(replyBuf)
	tail, err := rb.appendJSON(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(rb.b) + string(tail)
}

// written is v as writeJSON sends it: the bytes a client receives, held to
// the Content-Length that announced them.
func written(t testing.TB, v any) string {
	t.Helper()
	rec := httptest.NewRecorder()
	if err := writeJSON(rec, httptest.NewRequest("POST", "/v1/reconstruct", nil), http.StatusOK, v); err != nil {
		t.Fatal(err)
	}
	if n := rec.Header().Get("Content-Length"); n != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q before a body of %d bytes", n, rec.Body.Len())
	}
	return rec.Body.String()
}

// renderedFrom is the reconstruction of key whose table holds ids: the
// rendering the codecs write, made from ids as a table's is made from the
// ids it unpacks.
func renderedFrom(key string, ids []uint64) reconstruction {
	return reconstruction{key: key, count: len(ids), kept: &rendering{ids: func() []uint64 { return ids }}}
}

// reconstructed is the document a reconstruction of ids is held to:
// encoding/json's, with no ids an empty array, never null.
func reconstructed(t testing.TB, key string, ids []uint64) string {
	t.Helper()
	return encodingJSON(t, ReconstructResponse{Key: key, Count: len(ids), IDs: append([]uint64{}, ids...)})
}

// replyKeys are keys encoding/json escapes in every way it has, and ones it
// copies.
var replyKeys = []string{
	"", "k3", "plain key ~ {[,:]}", `quo"te`, `back\slash`, "<script>", "a>b", "a&b",
	"tab\there", "nul\x00", "\x1f", "\x7f", "line\nfeed\r", "\b\f",
	"bad\xffutf8", "\xc3", "\xe2\x80", "sep\u2028\u2029", "héllo", "日本語", "😀", "\ufffd",
}

// replyIDs holds 0, 10^k − 1, 10^k for every k and the largest id there is:
// both ends of every decimal length from 1 to 20.
func replyIDs() []uint64 {
	ids := []uint64{0, math.MaxUint64, math.MaxUint64 - 1, 1<<63 - 1, 1 << 63, 1 << 32, 1<<32 - 1, 7, 42, 1234567, 12345678}
	for p := uint64(1); ; p *= 10 {
		ids = append(ids, p-1, p, p+1)
		if p > math.MaxUint64/10 {
			return ids
		}
	}
}

// idRun returns n ids from first, gap apart.
func idRun(first uint64, n int, gap uint64) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = first + uint64(i)*gap
	}
	return ids
}

// ascendingIDLists are ascending lists, as a reconstruction's are, that
// change their digit count and cross 10⁴ boundaries: runs of gap 1 across
// every digit-count change from 10⁴ to 10¹²; runs of gap 1 and 7 across the
// 10⁴ multiples of numbers of one to seven digits; ids 90 apart from 0, as a
// reconstruction's are; gaps of 9 999, 10⁴ and 10 007, which cross a 10⁴
// boundary almost every id; every id of replyIDs in order; and all of them
// together, then descending.
func ascendingIDLists() [][]uint64 {
	var lists [][]uint64
	for p := uint64(1e4); p <= 1e12; p *= 10 {
		lists = append(lists, idRun(p-30, 60, 1))
	}
	for _, h := range []uint64{1, 2, 9, 10, 99, 100, 12_345, 999_999, 1_000_000, 9_999_999} {
		lists = append(lists, idRun(h*1e4-3, 7, 1), idRun(h*1e4-120, 40, 7))
	}
	lists = append(lists, idRun(0, 2_000, 90), idRun(5, 300, 9_999), idRun(0, 300, 1e4), idRun(9_999, 300, 10_007),
		idRun(1e11-5*10_007, 10, 10_007), slices.Sorted(slices.Values(replyIDs())))
	var all []uint64
	for _, list := range lists {
		all = append(all, list...)
	}
	slices.Sort(all)
	descending := slices.Clone(all)
	slices.Reverse(descending)
	return append(lists, all, descending)
}

// tableDB is a pruned database over [0, 2⁴⁰) whose keys' tables hold real
// tables of every shape a reply is held to: "empty", a removable key whose
// one id was removed again, so that its version answers for no id of the
// leaf left behind; "one", one id; "small", ids below 10⁴; "crossing", runs
// across the 10⁴ multiples of numbers of one to seven digits; and "huge", ids
// about 10¹¹ and above 10¹². It returns the ids each key stores.
func tableDB(t testing.TB) (*setdb.DB, map[string][]uint64) {
	t.Helper()
	db, err := setdb.Open(setdb.Options{Namespace: 1 << 40, Bits: 1 << 12, K: 3, TreeDepth: 30, Pruned: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var crossing []uint64
	for _, h := range []uint64{1, 99, 12_345, 9_999_999} {
		crossing = append(crossing, idRun(h*1e4-3, 7, 1)...)
	}
	stored := map[string][]uint64{
		"empty":    nil,
		"one":      {123_456_789},
		"small":    idRun(3, 270, 37),
		"crossing": crossing,
		"huge":     append(idRun(1e11-3, 7, 1), 5e11, 1e12+7, 1<<40-1),
	}
	for key, ids := range stored {
		if key != "empty" {
			if err := db.AddMany(setdb.Write{Key: key, IDs: ids}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.AddDynamic("empty", 77); err != nil {
		t.Fatal(err)
	}
	if err := db.RemoveDynamic("empty", 77); err != nil {
		t.Fatal(err)
	}
	return db, stored
}

// TestReplyJSONIsEncodingJSON is the byte-identity gate of the hand-written
// half of the reply buffer: the JSON documents that carry ids and the three
// NDJSON lines are, byte for byte and newline included, what encoding/json
// writes for the same values — nil ids as null, no ids as [], every key it
// escapes, ids of every decimal length, and ascending lists that change
// their digit count and cross 10⁴ boundaries (ascendingIDLists). A
// reconstruction is held to it as it is sent: the head from the reply
// buffer, then its table's kept rendering, behind one Content-Length — and
// for real tables (tableDB), down to the wire body and the reply the server
// sends, whose empty table is "ids":[], never null.
func TestReplyJSONIsEncodingJSON(t *testing.T) {
	ids := replyIDs()
	for n := uint64(1); n <= 20; n++ {
		if !slices.ContainsFunc(ids, func(x uint64) bool { return uint64(len(fmt.Sprint(x))) == n }) {
			t.Fatalf("no id of %d digits among the cases", n)
		}
	}
	lists := [][]uint64{nil, {}, {0}, {math.MaxUint64}, ids}
	for _, x := range ids {
		lists = append(lists, []uint64{x})
	}
	for _, key := range replyKeys {
		for _, list := range lists {
			for _, v := range []any{
				SampleResponse{Key: key, Requested: len(list) + 3, Returned: len(list), IDs: list},
				SampleResponse{Key: key, Requested: -1, Returned: math.MinInt64, IDs: list},
			} {
				if got, want := appended(t, v), encodingJSON(t, v); got != want {
					t.Fatalf("%T of key %q, ids %v:\n appended %q\n encoding/json %q", v, key, list, got, want)
				}
			}
			if got, want := written(t, renderedFrom(key, list)), reconstructed(t, key, list); got != want {
				t.Fatalf("reconstruction of key %q, ids %v:\n written %q\n encoding/json %q", key, list, got, want)
			}
		}
		rb := new(replyBuf)
		rb.appendErrorLine(key)
		if got, want := string(rb.b), encodingJSON(t, struct {
			Error string `json:"error"`
		}{key}); got != want {
			t.Fatalf("error line of %q: appended %q, encoding/json %q", key, got, want)
		}
	}
	for _, list := range ascendingIDLists() {
		v := SampleResponse{Key: "k", Requested: len(list), Returned: len(list), IDs: list}
		if got, want := appended(t, v), encodingJSON(t, v); got != want {
			t.Fatalf("%T of %d ids from %d:\n appended %q\n encoding/json %q", v, len(list), list[0], got, want)
		}
		if got, want := written(t, renderedFrom("k", list)), reconstructed(t, "k", list); got != want {
			t.Fatalf("reconstruction of %d ids from %d:\n written %q\n encoding/json %q", len(list), list[0], got, want)
		}
	}
	db, stored := tableDB(t)
	srv := New(db, Config{})
	for key, members := range stored {
		p, err := db.PositivesFrom(db.Filter(key))
		if err != nil {
			t.Fatal(err)
		}
		table := p.AppendAll(nil)
		if x, ok := lacking(table, members); ok || (key == "empty") != (len(table) == 0) || (key == "one") != (len(table) == 1) {
			t.Fatalf("%s: a table of %d ids for %d stored, lacking %d: %v", key, len(table), len(members), x, ok)
		}
		want := reconstructed(t, key, table)
		if got := written(t, reconstruction{key: key, count: p.Len(), kept: renderingOf(p)}); got != want {
			t.Fatalf("%s: the document written from the table's rendering:\n %q\n encoding/json %q", key, got, want)
		}
		if got := renderingOf(p).wireBody(); !bytes.Equal(got, wire.IDsResult{IDs: table}.Encode(nil)) {
			t.Fatalf("%s: the wire body of the table's rendering is %x", key, got)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/reconstruct", strings.NewReader(`{"key":"`+key+`"}`)))
		if rec.Code != http.StatusOK || rec.Body.String() != want {
			t.Fatalf("%s: /v1/reconstruct answered %d: %q, want %q", key, rec.Code, rec.Body.String(), want)
		}
		if key == "empty" && !strings.HasSuffix(rec.Body.String(), `,"count":0,"ids":[]}`+"\n") {
			t.Fatalf("a version with no positives is reconstructed as %q", rec.Body.String())
		}
	}
	// The NDJSON lines: one line an id — an id of 0 too, which an omitempty
	// field would have dropped — and the terminator.
	rb := new(replyBuf)
	rb.appendIDLines(ids)
	rb.appendDoneLine()
	var want strings.Builder
	for _, x := range ids {
		want.WriteString(encodingJSON(t, struct {
			ID uint64 `json:"id"`
		}{x}))
	}
	want.WriteString(encodingJSON(t, struct {
		Done bool `json:"done"`
	}{true}))
	if string(rb.b) != want.String() {
		t.Fatalf("NDJSON lines: appended %q, encoding/json %q", rb.b, want.String())
	}
	if !strings.HasPrefix(string(rb.b), "{\"id\":0}\n") {
		t.Fatalf("an id of 0 is written as %q", rb.b[:12])
	}
	// Every other reply is encoding/json's own, through the same buffer.
	other := errorBody{Error: "no such <key>", RequestID: "r-1"}
	if got, want := appended(t, other), encodingJSON(t, other); got != want {
		t.Fatalf("error body: %q, want %q", got, want)
	}
	if _, err := new(replyBuf).appendJSON(math.NaN()); err == nil {
		t.Fatal("a value encoding/json refuses was appended")
	}
}

// FuzzReplyJSON holds the same identity on arbitrary keys and id lists: the
// key is the fuzzer's bytes as they come, valid UTF-8 or not, and the ids are
// its second argument read eight bytes at a time, then shortened to every
// decimal length — as they come, sorted, and as a run that starts at the
// first of them cut below 10¹² and climbs by every byte of the argument, so
// that neighbours are close and cross digit counts and 10⁴ boundaries as a
// reconstruction's ids do. A reconstruction is written as the server sends
// one: its head, then the rendering of a table holding the list.
func FuzzReplyJSON(f *testing.F) {
	for _, key := range replyKeys {
		f.Add([]byte(key), []byte{})
	}
	f.Add([]byte("k"), binary.LittleEndian.AppendUint64(nil, math.MaxUint64))
	f.Add([]byte("k"), bytes.Repeat([]byte{0x9a, 0x3c}, 36))
	f.Add([]byte("k"), append(binary.LittleEndian.AppendUint64(nil, 1e11-3_000), bytes.Repeat([]byte{90}, 64)...))
	f.Add([]byte("k"), append(binary.LittleEndian.AppendUint64(nil, 99_998_000), bytes.Repeat([]byte{255, 1}, 16)...))
	f.Fuzz(func(t *testing.T, key, packed []byte) {
		var ids []uint64
		for rest := packed; len(rest) >= 8; rest = rest[8:] {
			for x := binary.LittleEndian.Uint64(rest); ; x /= 10 {
				ids = append(ids, x)
				if x == 0 {
					break
				}
			}
		}
		var run []uint64
		if len(ids) > 0 {
			x := ids[0] % 1e12
			for _, gap := range packed {
				run = append(run, x)
				x += uint64(gap)
			}
		}
		for _, list := range [][]uint64{ids, slices.Sorted(slices.Values(ids)), run} {
			v := SampleResponse{Key: string(key), Requested: len(packed), Returned: len(list), IDs: list}
			if got, want := appended(t, v), encodingJSON(t, v); got != want {
				t.Fatalf("%T of key %q, ids %v:\n appended %q\n encoding/json %q", v, key, list, got, want)
			}
			if got, want := written(t, renderedFrom(string(key), list)), reconstructed(t, string(key), list); got != want {
				t.Fatalf("reconstruction of key %q, ids %v:\n written %q\n encoding/json %q", key, list, got, want)
			}
		}
		rb := new(replyBuf)
		rb.appendErrorLine(string(key))
		rb.appendIDLines(ids)
		want := encodingJSON(t, struct {
			Error string `json:"error"`
		}{string(key)})
		for _, x := range ids {
			want += encodingJSON(t, struct {
				ID uint64 `json:"id"`
			}{x})
		}
		if string(rb.b) != want {
			t.Fatalf("NDJSON lines of %q, %v: appended %q, encoding/json %q", key, ids, rb.b, want)
		}
	})
}

// sinkConn is the net.Conn of a binConn whose frames a test reads back: every
// Write is kept, or refused once fail is set.
type sinkConn struct {
	net.Conn // the methods a frame write never calls
	wrote    bytes.Buffer
	fail     error
}

func (c *sinkConn) Write(p []byte) (int, error) {
	if c.fail != nil {
		return 0, c.fail
	}
	return c.wrote.Write(p)
}
func (c *sinkConn) SetWriteDeadline(time.Time) error { return nil }

// TestReplyFrameIsAppendFrame: the frame a binConn packs in place behind its
// reserved header is, for every message the server sends and for the
// empty-body BUSY, the frame AppendFrame builds from the message encoded on
// its own — through a pooled buffer that has held a longer frame before.
func TestReplyFrameIsAppendFrame(t *testing.T) {
	ids := replyIDs()
	conn := new(sinkConn)
	bc := &binConn{srv: New(nil, Config{}), conn: conn}
	for i, c := range []struct {
		op, flags byte
		m         frameBody
	}{
		{wire.OpSampleResult, 0, wire.SampleResult{Requested: 1 << 40, IDs: ids}},
		{wire.OpSampleResult, 0, wire.SampleResult{}},
		{wire.OpSampleChunk, wire.FlagFinal, wire.SampleChunk{IDs: ids[:3]}},
		{wire.OpSampleChunk, 0, wire.SampleChunk{}},
		{wire.OpIDsResult, 0, wire.IDsResult{IDs: ids}},
		{wire.OpIDsResult, 0, wire.IDsResult{IDs: []uint64{}}},
		{wire.OpEstimateResult, 0, wire.EstimateResult{Estimate: 12.75}},
		{wire.OpAckResult, 0, wire.AckResult{Count: 300, Keys: 2}},
		{wire.OpError, 0, wire.ErrorResult{Code: wire.ErrCodeNotFound, Msg: `no set "k"`}},
		{wire.OpBusy, 0, nil},
	} {
		reqID := uint32(0xfffffff0 + i)
		var body []byte
		if c.m != nil {
			body = c.m.Encode(nil)
		}
		want := wire.AppendFrame(nil, c.op, c.flags, reqID, body)
		conn.wrote.Reset()
		if err := bc.reply(nil, c.op, c.flags, reqID, c.m); err != nil {
			t.Fatal(err)
		}
		if got := conn.wrote.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("opcode %d, %T: packed in place %x, AppendFrame %x", c.op, c.m, got, want)
		}
		if h, gotBody, err := wire.ReadFrame(&conn.wrote, 0); err != nil || h.RequestID != reqID || !bytes.Equal(gotBody, body) {
			t.Fatalf("opcode %d: the frame reads back as %+v, %d body bytes, err %v", c.op, h, len(gotBody), err)
		}
	}
	if out := bc.srv.bin.framesOut.Load(); out != 10 {
		t.Fatalf("%d frames counted out of 10", out)
	}
	conn.fail = net.ErrClosed
	if err := bc.reply(nil, wire.OpAckResult, 0, 1, wire.AckResult{}); err == nil || bc.srv.bin.framesOut.Load() != 10 {
		t.Fatalf("a frame the peer never got: err %v, %d frames counted", err, bc.srv.bin.framesOut.Load())
	}
}

// failingWriter is the http.ResponseWriter of a client that hangs up: Write
// takes the first accept bytes and fails from then on.
type failingWriter struct {
	h      http.Header
	status int
	accept int
	wrote  int
}

func (w *failingWriter) Header() http.Header { return w.h }
func (w *failingWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}
func (w *failingWriter) Write(p []byte) (int, error) {
	n := min(len(p), w.accept-w.wrote)
	w.wrote += n
	if n < len(p) {
		return n, net.ErrClosed
	}
	return n, nil
}

// TestUndeliveredReplyIsCounted: a buffered HTTP reply whose one Write fails
// — outright, or after part of it went out — ends its request as aborted:
// counted in the endpoint's errors, as the binary listener counts a frame
// the peer never got, logged once at debug, with nothing written after it.
// (The parent dropped the write error and recorded a success.)
func TestUndeliveredReplyIsCounted(t *testing.T) {
	_, db := newTestServer(t, Config{})
	var logged bytes.Buffer
	h := New(db, Config{Logger: slog.New(slog.NewTextHandler(&logged, &slog.HandlerOptions{Level: slog.LevelDebug}))})
	stats := func(path string) EndpointStats {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
		var st StatsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.Endpoints[path]
	}
	for i, c := range []struct {
		path, body string
		accept     int
	}{
		{"/v1/reconstruct", `{"key":"plain"}`, 0},
		{"/v1/reconstruct", `{"key":"plain"}`, 100},
		{"/v1/sample", `{"key":"plain","n":64}`, 0},
		{"/v1/sample", `{"key":"plain","n":64}`, 17},
		{"/v1/intersection", `{"key_a":"plain","key_b":"dyn"}`, 5},
	} {
		before := stats(c.path)
		logged.Reset()
		w := &failingWriter{h: http.Header{}, accept: c.accept}
		h.ServeHTTP(w, httptest.NewRequest("POST", c.path, strings.NewReader(c.body)))
		if lines := strings.Count(logged.String(), `error="stream aborted"`); lines != 1 || strings.Count(logged.String(), "\n") != 1 {
			t.Fatalf("case %d: the aborted reply was logged %d times in:\n%s", i, lines, logged.String())
		}
		after := stats(c.path)
		if after.Requests != before.Requests+1 || after.Errors != before.Errors+1 {
			t.Fatalf("case %d, %s cut off after %d bytes: requests %d → %d, errors %d → %d", i, c.path, c.accept,
				before.Requests, after.Requests, before.Errors, after.Errors)
		}
		// One reply was begun — a 200 with its length — and no error
		// document chased it down the dead connection.
		if w.status != http.StatusOK || w.h.Get("Content-Length") == "" || w.wrote != c.accept {
			t.Fatalf("case %d: status %d, Content-Length %q, %d bytes accepted of %d allowed", i, w.status, w.h.Get("Content-Length"), w.wrote, c.accept)
		}
	}
	// A reply that arrives is a success, and says how long it is.
	rec := httptest.NewRecorder()
	before := stats("/v1/reconstruct")
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/reconstruct", strings.NewReader(`{"key":"plain"}`)))
	if after := stats("/v1/reconstruct"); rec.Code != 200 || after.Errors != before.Errors ||
		rec.Header().Get("Content-Length") != fmt.Sprint(rec.Body.Len()) {
		t.Fatalf("delivered reply: status %d, errors %d → %d, Content-Length %q of %d bytes",
			rec.Code, before.Errors, after.Errors, rec.Header().Get("Content-Length"), rec.Body.Len())
	}
}

// BenchmarkReplyJSON times the encoding of one id-bearing reply into a
// reused buffer, by encoding/json (std: what every reply went through before
// the reply buffer, and the oracle since) and by the reply buffer's own
// appenders (append), at the benchmark's three reply sizes: a point sample,
// a 64-id batch and a reconstruction of the batch shape (ids ≈ 90 apart
// below 10⁶) — and on the reconstruction of batchShapeDB's "big" itself
// (table=big), and on 64 and 11 100 ids in random order as a sample's
// (shuffled=N). A reconstruction's append is its table's first: the
// rendering made afresh.
// Run with -benchmem.
func BenchmarkReplyJSON(b *testing.B) {
	type shape struct {
		name string
		v    any
	}
	var shapes []shape
	for _, n := range []int{1, 64, 11100} {
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = uint64(i)*90 + uint64(i*i)%89
		}
		var v any = ReconstructResponse{Key: "k3", Count: n, IDs: ids}
		if n <= 64 {
			v = SampleResponse{Key: "k3", Requested: n, Returned: n, IDs: ids}
		}
		shapes = append(shapes, shape{fmt.Sprintf("ids=%d", n), v})
		if n > 1 {
			shuffled := slices.Clone(ids)
			rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			shapes = append(shapes, shape{fmt.Sprintf("shuffled=%d", n), SampleResponse{Key: "k3", Requested: n, Returned: n, IDs: shuffled}})
		}
	}
	db := batchShapeDB(b)
	big, err := db.AppendReconstructFrom(nil, db.Filter("big"))
	if err != nil {
		b.Fatal(err)
	}
	shapes = append(shapes, shape{"table=big", ReconstructResponse{Key: "big", Count: len(big), IDs: big}})
	for _, s := range shapes {
		v := s.v
		for _, side := range []struct {
			name   string
			encode func(rb *replyBuf) (tail []byte, err error)
		}{
			{"std", func(rb *replyBuf) ([]byte, error) { return nil, json.NewEncoder(rb).Encode(v) }},
			{"append", func(rb *replyBuf) ([]byte, error) {
				if r, ok := v.(ReconstructResponse); ok {
					// Rendered afresh: what a table's first reply pays.
					return rb.appendJSON(renderedFrom(r.Key, r.IDs))
				}
				return rb.appendJSON(v)
			}},
		} {
			b.Run(s.name+"/"+side.name, func(b *testing.B) {
				b.ReportAllocs()
				rb := new(replyBuf)
				var tail []byte
				for i := 0; i < b.N; i++ {
					rb.b = rb.b[:0]
					var err error
					if tail, err = side.encode(rb); err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(int64(len(rb.b) + len(tail)))
			})
		}
	}
}

// batchShapeDB is a database of the benchmark's batch shape (M = 10⁶, planned
// for 10 000 ids at accuracy 0.9, every leaf of the pruned tree occupied)
// holding "big", 10 000 ids that reconstruct to some 11 000, and "small", 100
// ids — both versions warm: each has scanned for its packed positives.
func batchShapeDB(tb testing.TB) *setdb.DB {
	tb.Helper()
	opts, err := setdb.PlanOptions(0.9, 10_000, 1_000_000, 3)
	if err != nil {
		tb.Fatal(err)
	}
	opts.Pruned = true
	opts.Seed = 7
	db, err := setdb.Open(opts)
	if err != nil {
		tb.Fatal(err)
	}
	data := rand.New(rand.NewSource(1))
	for key, n := range map[string]int{"big": 10_000, "small": 100} {
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = uint64(data.Int63n(1_000_000))
		}
		if err := db.AddMany(setdb.Write{Key: key, IDs: ids}); err != nil {
			tb.Fatal(err)
		}
	}
	for _, key := range []string{"big", "small"} {
		if _, err := db.SampleExactFrom(db.Filter(key), 1); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// TestPooledRepliesStayWithTheirRequest: the reply buffer goes from one
// request to the next through a pool, and a reconstruction's ids are kept
// beside its table, so a buffer handed back early, or twice, or a rendering
// found on the wrong table, would carry one key's ids into another key's
// reply. Eight goroutines reconstruct and sample 16 keys
// at once over both codecs, 2 048 requests a round, each reply held to its
// own key: a reconstruction to the bytes (HTTP) and ids (binary) of the key's
// enumerated positives, a sample to those positives — the keys
// live in disjoint stripes of the namespace, so another key's ids are
// nobody's positives. The second round runs the same loop beside clients
// that give up mid-reply: an HTTP reply cut off after some bytes, which must
// be counted as aborted every time, and binary connections closed with the
// frame half read. Run under -race.
func TestPooledRepliesStayWithTheirRequest(t *testing.T) {
	const M, keys, perKey, stripe = 20_000, 16, 200, 20_000 / 16
	opts, err := setdb.PlanOptions(0.9, perKey, M, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts.Seed = 11
	db, err := setdb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	data := rand.New(rand.NewSource(11))
	type truth struct {
		ids      []uint64
		body     string
		positive map[uint64]bool
	}
	want := make([]truth, keys)
	for k := range want {
		ids := make([]uint64, perKey)
		for i := range ids {
			ids[i] = uint64(k*stripe + data.Intn(stripe))
		}
		key := fmt.Sprintf("k%d", k)
		if err := db.AddMany(setdb.Write{Key: key, IDs: ids}); err != nil {
			t.Fatal(err)
		}
		f := db.Filter(key)
		want[k].positive = map[uint64]bool{}
		for x := uint64(0); x < M; x++ {
			if f.Contains(x) {
				want[k].ids = append(want[k].ids, x)
				want[k].positive[x] = true
			}
		}
		want[k].body = encodingJSON(t, ReconstructResponse{Key: key, Count: len(want[k].ids), IDs: want[k].ids})
	}
	srv := New(db, Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	addr := serveBinaryForTest(t, srv)

	positives := func(who string, k int, ids []uint64) bool {
		for _, x := range ids {
			if !want[k].positive[x] {
				t.Errorf("%s: %d is no positive of k%d", who, x, k)
				return false
			}
		}
		return len(ids) > 0
	}
	round := func(aborters int) (aborted uint64) {
		stop := make(chan struct{})
		var clients, quitters sync.WaitGroup
		var cut atomic.Uint64
		for a := 0; a < aborters; a++ {
			quitters.Add(1)
			go func() {
				defer quitters.Done()
				for i := a; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					key := fmt.Sprintf("k%d", i%keys)
					// Over HTTP the reply's one Write fails part-way, for sure.
					w := &failingWriter{h: http.Header{}, accept: i * 37 % len(want[i%keys].body)}
					srv.ServeHTTP(w, httptest.NewRequest("POST", "/v1/reconstruct", strings.NewReader(`{"key":"`+key+`"}`)))
					cut.Add(1)
					// On the wire the peer reads the header and a little more, and hangs up.
					conn, err := net.Dial("tcp", addr)
					if err != nil {
						t.Error(err)
						return
					}
					var some [wire.HeaderSize + 8]byte
					if err := wire.WriteFrame(conn, wire.OpReconstruct, 0, 1, wire.ReconstructReq{Key: key}.Encode(nil)); err == nil {
						_, _ = io.ReadFull(conn, some[:])
					}
					conn.Close()
				}
			}()
		}
		for g := 0; g < 8; g++ {
			clients.Add(1)
			go func() {
				defer clients.Done()
				bin, err := wire.Dial(addr)
				if err != nil {
					t.Error(err)
					return
				}
				defer bin.Close()
				for i := 0; i < 256; i++ {
					k := (g*5 + i*3) % keys
					key, who := fmt.Sprintf("k%d", k), fmt.Sprintf("client %d, request %d", g, i)
					switch i % 4 {
					case 0:
						resp, err := http.Post(ts.URL+"/v1/reconstruct", "application/json", strings.NewReader(`{"key":"`+key+`"}`))
						if err != nil {
							t.Error(err)
							return
						}
						body, err := io.ReadAll(resp.Body)
						resp.Body.Close()
						if err != nil || string(body) != want[k].body {
							t.Errorf("%s: /v1/reconstruct of %s answered %d bytes that are not its %d (err %v)", who, key, len(body), len(want[k].body), err)
							return
						}
					case 1:
						if ids, err := bin.Reconstruct(key, false); err != nil || !slices.Equal(ids, want[k].ids) {
							t.Errorf("%s: the binary reconstruction of %s holds %d ids that are not its %d (err %v)", who, key, len(ids), len(want[k].ids), err)
							return
						}
					case 2:
						var smp SampleResponse
						if code := post(t, ts, "/v1/sample", fmt.Sprintf(`{"key":%q,"n":48,"uniform":%v}`, key, i%8 == 2), &smp); code != 200 ||
							smp.Key != key || smp.Returned != len(smp.IDs) || !positives(who, k, smp.IDs) {
							t.Errorf("%s: /v1/sample of %s: status %d, key %q, %d ids", who, key, code, smp.Key, len(smp.IDs))
							return
						}
					case 3:
						if ids, err := bin.Sample(key, 48, wire.SampleOpts{Uniform: i%8 == 3}); err != nil || !positives(who, k, ids) {
							t.Errorf("%s: the binary sample of %s: %d ids, err %v", who, key, len(ids), err)
							return
						}
					}
				}
			}()
		}
		clients.Wait()
		close(stop)
		quitters.Wait()
		return cut.Load()
	}
	round(0)
	if st := srv.stats().Endpoints["/v1/reconstruct"]; st.Requests != 8*64 || st.Errors != 0 {
		t.Fatalf("a round nobody gave up in: %d reconstructions, %d errors", st.Requests, st.Errors)
	}
	cut := round(2)
	if st := srv.stats().Endpoints["/v1/reconstruct"]; cut == 0 || st.Requests != 2*8*64+cut || st.Errors != cut {
		t.Fatalf("%d HTTP replies were cut off: %d reconstructions counted, %d of them errors", cut, st.Requests, st.Errors)
	}
}

// BenchmarkServedReconstruct times one reconstruction of the batch shape
// (≈ 11 000 ids) as the server serves it, in process: through the HTTP
// handler into a writer that keeps nothing, and through the binary listener
// over a net.Pipe, the client's decode included. http and binary are warm:
// the version's table and its rendering are kept, and a request writes them.
// first/http and first/binary serve a fresh version every iteration — the
// same bits published again, outside the timer — so the scan, the render and
// the write are all in it. Run with -benchmem: what is left per warm request
// is the request's own (headers, context, trace; on the binary side the
// client's decoded ids).
func BenchmarkServedReconstruct(b *testing.B) {
	db := batchShapeDB(b)
	positive, err := db.PositivesFrom(db.Filter("big"))
	if err != nil {
		b.Fatal(err)
	}
	// A codec's serve makes one request and returns the reply bytes it counted.
	codecs := []struct {
		name  string
		serve func(b *testing.B) func() int
	}{
		{"http", func(b *testing.B) func() int {
			h := New(db, Config{})
			w := &nullWriter{h: http.Header{}}
			return func() int {
				w.n = 0
				h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/reconstruct", strings.NewReader(`{"key":"big"}`)))
				if w.status != http.StatusOK || w.n < 70_000 {
					b.Fatalf("status %d, %d reply bytes", w.status, w.n)
				}
				return w.n
			}
		}},
		{"binary", func(b *testing.B) func() int {
			ln := newPipeListener()
			serveBinaryOn(b, New(db, Config{}), ln)
			c := wire.NewClient(ln.dial())
			b.Cleanup(func() { c.Close() })
			return func() int {
				if ids, err := c.Reconstruct("big", false); err != nil || len(ids) < 10_000 {
					b.Fatalf("%d ids, err %v", len(ids), err)
				}
				return 0
			}
		}},
	}
	for _, first := range []bool{false, true} {
		for _, codec := range codecs {
			name := codec.name
			if first {
				name = "first/" + name
			}
			b.Run(name, func(b *testing.B) {
				serve := codec.serve(b)
				b.ReportAllocs()
				n := 0
				for i := 0; i < b.N; i++ {
					if first {
						// Adding a positive again sets no bit: a new version of the same set.
						b.StopTimer()
						f := db.Filter("big")
						if err := db.Add("big", positive.Select(0)); err != nil || db.Filter("big") == f {
							b.Fatalf("no new version of big (err %v)", err)
						}
						b.StartTimer()
					}
					n = serve()
				}
				if n > 0 {
					b.SetBytes(int64(n))
				}
			})
		}
	}
}

// TestOutsizedBuffersAreNotPooled: a reply buffer grown past 1 MiB is dropped
// on release, not kept for the next request; at the cap it is emptied and
// kept.
func TestOutsizedBuffersAreNotPooled(t *testing.T) {
	for _, over := range []int{0, 1} {
		rb := &replyBuf{b: make([]byte, 5, maxPooledReply+over)}
		rb.release()
		// What the pool is handed has been emptied for its next request.
		if kept := over == 0; (len(rb.b) == 0) != kept {
			t.Fatalf("%d past the cap: the reply buffer was kept: %v", over, len(rb.b) == 0)
		}
		for i := 0; i < 64; i++ {
			if rb := newReply(); len(rb.b) != 0 || cap(rb.b) > maxPooledReply {
				t.Fatalf("the pool gave out %d bytes in %d", len(rb.b), cap(rb.b))
			}
		}
	}
}
