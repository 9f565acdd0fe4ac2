package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bloom"
	"repro/internal/setdb"
	"repro/internal/wire"
)

// TestBinaryStreamCreditIsChargedForIDsSent is the regression test for
// the credit leak: a stream over a key whose draws come back short (here
// a drained dynamic set, which yields nothing) was charged for the ids
// it asked for while the client can only grant back the ids it received,
// so the window drained and the stream died with 408 after
// StreamWriteTimeout. Charged for ids sent, it ends like the same
// request over NDJSON does: empty, complete, and never parked.
func TestBinaryStreamCreditIsChargedForIDsSent(t *testing.T) {
	s, addr := newBinaryTestServer(t, Config{StreamChunk: 8, StreamWriteTimeout: 300 * time.Millisecond})
	if err := s.DB().AddDynamic("drained", 10, 20, 30); err != nil {
		t.Fatal(err)
	}
	if err := s.DB().RemoveDynamic("drained", 10, 20, 30); err != nil {
		t.Fatal(err)
	}
	c := dialTestClient(t, addr)
	got := 0
	err := c.SampleStream("drained", 64, wire.SampleOpts{Dynamic: true}, 16, func(ids []uint64) error {
		got += len(ids)
		return nil
	})
	if err != nil {
		t.Fatalf("stream over a drained set: %v", err)
	}
	if got != 0 {
		t.Fatalf("an empty filter streamed %d ids", got)
	}
	if stalls := s.bin.creditStalls.Load(); stalls != 0 {
		t.Fatalf("stream parked %d times on credit it was never owed", stalls)
	}
}

// otherBundle is a restore bundle of a database planned for a different
// namespace and filter size than the shared fixture, holding a "plain"
// set far from the fixture's (which ends below 4400): ids drawn from it,
// or a draw that mixes the two databases, cannot pass for the fixture's.
func otherBundle(t *testing.T) []byte {
	t.Helper()
	opts, err := setdb.PlanOptions(0.9, 64, 50_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts.Seed = 11
	db, err := setdb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(40_000); id < 40_064; id++ {
		if err := db.Add("plain", id); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := db.SnapshotView().WriteBundleTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamServedByTheDatabaseItStartedOn pins a stream to one
// database across a restore, deterministically, through the binary
// credit flow: read the first chunk (the window is then spent or nearly
// so), replace the database with one of a different shape, grant credit,
// and the remaining chunks must still arrive — drawn from the version
// the stream pinned, not failing with "incompatible filters" because a
// later chunk looked the database up again.
func TestStreamServedByTheDatabaseItStartedOn(t *testing.T) {
	s, addr := newBinaryTestServer(t, Config{StreamChunk: 64})
	ts := httptest.NewServer(s)
	defer ts.Close()
	old := s.DB()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	const n = 256
	req := wire.SampleReq{Key: "plain", N: n, Credit: 64}.Encode(nil, true)
	if err := wire.WriteFrame(conn, wire.OpSampleStream, 0, 1, req); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	readChunk := func() (final bool) {
		h, body, err := wire.ReadFrame(conn, 0)
		if err != nil {
			t.Fatal(err)
		}
		if h.Opcode == wire.OpError {
			er, _ := wire.DecodeErrorResult(body)
			t.Fatalf("stream failed after %d ids: %v", len(got), er)
		}
		if h.Opcode != wire.OpSampleChunk {
			t.Fatalf("opcode %d mid-stream", h.Opcode)
		}
		chunk, err := wire.DecodeSampleChunk(body)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, chunk.IDs...)
		return h.Flags&wire.FlagFinal != 0
	}
	if readChunk() {
		t.Fatal("first chunk was final; the stream never spanned the restore")
	}

	resp, err := http.Post(ts.URL+"/v1/restore", "application/octet-stream", bytes.NewReader(otherBundle(t)))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: status %d", resp.StatusCode)
	}
	if m := s.DB().Options().Namespace; m != 50_000 {
		t.Fatalf("restore did not take: namespace %d", m)
	}

	if err := wire.WriteFrame(conn, wire.OpCredit, 0, 1, wire.CreditGrant{N: n}.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	for !readChunk() {
	}
	if len(got) == 0 {
		t.Fatal("stream returned nothing")
	}
	for _, id := range got {
		if ok, err := old.Contains("plain", id); err != nil || !ok {
			t.Fatalf("streamed id %d is not in the set the stream started on (err %v)", id, err)
		}
	}
	// A stream opened now is served by the restored database.
	c := dialTestClient(t, addr)
	ids, err := c.Sample("plain", 32, wire.SampleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if ok, err := s.DB().Contains("plain", id); err != nil || !ok {
			t.Fatalf("post-restore sample %d is not in the restored set (err %v)", id, err)
		}
	}
}

// TestReconstructRacingRestore is the same guarantee for the buffered
// operations. It cannot be made deterministic without a hook: a
// reconstruction has no client-visible midpoint (no chunk, no credit) at
// which a test could hold it while the restore lands, so this runs the
// two against each other and requires of every answer what pinning
// guarantees — it is wholly one database's: 200 with exactly that
// database's set, never a 500 from a filter of one database walked on
// the tree of the other. (At the parent commit the window is the gap between two
// s.DB() loads; the test catches it only sometimes there.)
func TestReconstructRacingRestore(t *testing.T) {
	ts, db := newTestServer(t, Config{})
	var fixture bytes.Buffer
	if _, err := db.SnapshotView().WriteBundleTo(&fixture); err != nil {
		t.Fatal(err)
	}
	bundles := [][]byte{fixture.Bytes(), otherBundle(t)}
	// What each database answers when nothing races it.
	var sets [2][]uint64
	for i, bundle := range bundles {
		resp, err := http.Post(ts.URL+"/v1/restore", "application/octet-stream", bytes.NewReader(bundle))
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		var rec ReconstructResponse
		if code := post(t, ts, "/v1/reconstruct", `{"key":"plain"}`, &rec); resp.StatusCode != 200 || code != 200 {
			t.Fatalf("bundle %d: restore status %d, reconstruct status %d", i, resp.StatusCode, code)
		}
		sets[i] = rec.IDs
	}
	if slices.Equal(sets[0], sets[1]) {
		t.Fatal("the two databases reconstruct alike; the test would prove nothing")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(ts.URL+"/v1/restore", "application/octet-stream", bytes.NewReader(bundles[i%2]))
			if err != nil {
				t.Error(err)
				return
			}
			readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("restore: status %d", resp.StatusCode)
				return
			}
		}
	}()
	for i := 0; i < 150; i++ {
		var rec ReconstructResponse
		if code := post(t, ts, "/v1/reconstruct", `{"key":"plain"}`, &rec); code != http.StatusOK {
			t.Errorf("reconstruct racing a restore: status %d", code)
			break
		}
		if !slices.Equal(rec.IDs, sets[0]) && !slices.Equal(rec.IDs, sets[1]) {
			t.Errorf("reconstruction is neither database's set: %v", rec.IDs)
			break
		}
		var smp SampleResponse
		if code := post(t, ts, "/v1/sample", `{"key":"plain","n":8}`, &smp); code != http.StatusOK {
			t.Errorf("sample racing a restore: status %d", code)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// flushHook is a ResponseWriter that calls hook after the first flush — in
// the handler's goroutine, between one stream chunk leaving and the next
// being drawn, which is where a test of pinning needs to stand.
type flushHook struct {
	http.ResponseWriter
	hook func()
}

func (w *flushHook) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *flushHook) Flush() {
	w.ResponseWriter.(http.Flusher).Flush()
	if w.hook != nil {
		w.hook()
		w.hook = nil
	}
}

// TestUniformStreamFinishesOnTheLifetimeItPinned is the one pin rule on the
// exact mode. A uniform stream's key is deleted and
// re-created with disjoint ids between its first chunk and its second — on
// the wire inside the first chunk's callback, before any credit for a second
// is granted; over HTTP right after the first chunk is flushed — and the
// stream must finish as if nothing had happened: 200 / a final chunk, no
// in-band error, every id a positive of the version it pinned and none of the
// lifetime that took the key's name. A request that arrives afterwards is
// served by that new lifetime alone. Every draw of both was a pick: each of
// the two versions scanned for its first chunk, and the pinned one once more
// for its second, because the reborn ids grew the pruned tree new leaves
// under its table.
func TestUniformStreamFinishesOnTheLifetimeItPinned(t *testing.T) {
	const n, chunk = 64, 16
	for _, codec := range []string{"http", "binary"} {
		t.Run(codec, func(t *testing.T) {
			s, addr := newBinaryTestServer(t, Config{StreamChunk: chunk})
			db := s.DB()
			pinned := db.Filter("plain")
			var reborn []uint64
			for id := uint64(90_000); len(reborn) < 32; id++ {
				if !pinned.Contains(id) {
					reborn = append(reborn, id)
				}
			}
			swapped := false
			swap := func() {
				swapped = true
				if !db.Delete("plain") {
					t.Error("Delete(plain) = false")
				}
				if err := db.Add("plain", reborn...); err != nil {
					t.Error(err)
				}
			}

			var got, after []uint64
			if codec == "binary" {
				c := dialTestClient(t, addr)
				err := c.SampleStream("plain", n, wire.SampleOpts{Uniform: true}, chunk, func(ids []uint64) error {
					if !swapped {
						swap()
					}
					got = append(got, ids...)
					return nil
				})
				if err != nil {
					t.Fatalf("stream across a Delete and re-Add: %v", err)
				}
				if after, err = c.Sample("plain", 8, wire.SampleOpts{Uniform: true}); err != nil {
					t.Fatal(err)
				}
			} else {
				ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					s.ServeHTTP(&flushHook{ResponseWriter: w, hook: swap}, r)
				}))
				defer ts.Close()
				resp, err := http.Post(ts.URL+"/v1/sample", "application/json",
					strings.NewReader(`{"key":"plain","n":64,"uniform":true,"stream":true}`))
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(string(readAll(t, resp))), "\n")
				if resp.StatusCode != http.StatusOK || lines[len(lines)-1] != `{"done":true}` {
					t.Fatalf("stream across a Delete and re-Add: status %d, last line %q", resp.StatusCode, lines[len(lines)-1])
				}
				for _, line := range lines[:len(lines)-1] {
					var l StreamLine
					if err := json.Unmarshal([]byte(line), &l); err != nil || l.Error != "" {
						t.Fatalf("stream line %q: in-band error or no line at all (%v)", line, err)
					}
					got = append(got, l.ID)
				}
				var smp SampleResponse
				if code := post(t, ts, "/v1/sample", `{"key":"plain","n":8,"uniform":true}`, &smp); code != http.StatusOK {
					t.Fatalf("uniform sample of the new lifetime: status %d", code)
				}
				after = smp.IDs
			}

			if !swapped || len(got) <= chunk {
				t.Fatalf("swapped=%v and %d ids streamed: the stream never spanned the swap", swapped, len(got))
			}
			for _, id := range got {
				if !pinned.Contains(id) {
					t.Fatalf("streamed id %d is no positive of the version the stream pinned", id)
				}
			}
			if len(after) == 0 {
				t.Fatal("the new lifetime served nothing")
			}
			for _, id := range after {
				if !slices.Contains(reborn, id) {
					t.Fatalf("a request after the swap drew %d, not of the lifetime it arrived in", id)
				}
			}
			if st := s.stats().DB; st.PositivesScans != 3 || st.PositivesDropped != 1 || st.DrawsWarm != uint64(len(got)+len(after)) || st.DrawsDescended != 0 {
				t.Fatalf("a stream and a request on two lifetimes: %d scans, %d tables dropped, %d picks, %d descents; want 3, 1, %d, 0",
					st.PositivesScans, st.PositivesDropped, st.DrawsWarm, st.DrawsDescended, len(got)+len(after))
			}
		})
	}
}

// TestUniformRacingWritesAndRebirths hammers one key, under -race, with what
// a version's one scan has to stand: uniform requests on both codecs
// (buffered and streamed) meeting on versions nobody has scanned yet, adds
// to the key, and the key deleted and
// re-created under them. Every request ends 200 or — in the gap between a
// Delete and the Add after it — 404, and every answer is drawn from one
// lifetime: the two lifetimes' ids come from disjoint pools, and an answer
// must lie wholly inside what one pool's filter answers for.
func TestUniformRacingWritesAndRebirths(t *testing.T) {
	s, addr := newBinaryTestServer(t, Config{StreamChunk: 8})
	ts := httptest.NewServer(s)
	defer ts.Close()
	db := s.DB()
	var pools [2][]uint64
	var poolFilters [2]*bloom.Filter
	for p := range pools {
		poolFilters[p] = db.Tree().NewQueryFilter()
		for i := uint64(0); i < 300; i++ {
			id := uint64(p)*50_000 + i*31
			pools[p] = append(pools[p], id)
			poolFilters[p].Add(id)
		}
	}
	oneLifetime := func(ids []uint64) bool {
		for _, f := range poolFilters {
			if !slices.ContainsFunc(ids, func(id uint64) bool { return !f.Contains(id) }) {
				return true
			}
		}
		return false
	}
	// postJSON is post for goroutines other than the test's: it reports,
	// and leaves failing to its caller.
	postJSON := func(path, body string, out any) int {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Errorf("%s: decode: %v", path, err)
		}
		return resp.StatusCode
	}
	// A lifetime starts with 64 ids.
	rebirth := func(pool []uint64) {
		db.Delete("hot")
		if err := db.Add("hot", pool[:64]...); err != nil {
			t.Error(err)
		}
	}
	rebirth(pools[0])

	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	writers.Add(1)
	go func() { // adds to whichever lifetime is current, and every eighth time a rebirth
		defer writers.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			pool := pools[(i/8)%2]
			if i%8 == 0 {
				rebirth(pool)
			}
			var added AddResponse
			if code := postJSON("/v1/add", fmt.Sprintf(`{"key":"hot","ids":[%d,%d]}`, pool[i%300], pool[(i*7)%300]), &added); code != http.StatusOK {
				t.Errorf("add: status %d", code)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			c.Timeout = 30 * time.Second
			for i := 0; i < 30; i++ {
				var ids []uint64
				var err error
				switch (g + i) % 3 {
				case 0:
					var smp SampleResponse
					if code := postJSON("/v1/sample", `{"key":"hot","n":12,"uniform":true}`, &smp); code != http.StatusOK && code != http.StatusNotFound {
						t.Errorf("HTTP uniform sample: status %d", code)
						return
					}
					ids = smp.IDs
				case 1:
					ids, err = c.Sample("hot", 12, wire.SampleOpts{Uniform: true})
				default:
					err = c.SampleStream("hot", 24, wire.SampleOpts{Uniform: true}, 8, func(chunk []uint64) error {
						ids = append(ids, chunk...)
						return nil
					})
				}
				var er wire.ErrorResult
				if err != nil && !(errors.As(err, &er) && er.Code == http.StatusNotFound) {
					t.Errorf("wire uniform sample: %v", err)
					return
				}
				if !oneLifetime(ids) {
					t.Errorf("one answer spliced two lifetimes: %v", ids)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	if _, err := dialTestClient(t, addr).Sample("hot", 4, wire.SampleOpts{Uniform: true}); err != nil {
		t.Fatal(err)
	}
	// Every draw was a pick from a table some request's scan had left: no
	// uniform request falls back to the descent, however cold its version.
	if st := s.stats().DB; st.DrawsWarm < 4 || st.DrawsDescended != 0 || st.PositivesScans == 0 {
		t.Fatalf("after the hammering: %d picks, %d descents, %d scans", st.DrawsWarm, st.DrawsDescended, st.PositivesScans)
	}
}

// TestPinnedCountingViewSurvivesLaterWrites pins the other half of the
// carried query view: a write to a counting key hands its successor a view
// patched from the one readers hold, so what a request pinned must stay
// bit for bit what it was however many writes follow. A request's pin is
// taken the way the handlers take it, 100 writes then go through the
// binary server — the first takes out every id the pinned version held —
// and the pinned filter still has its bits, its insertion count and its
// members, while the served version has moved on.
func TestPinnedCountingViewSurvivesLaterWrites(t *testing.T) {
	s, addr := newBinaryTestServer(t, Config{})
	c := dialTestClient(t, addr)
	held := []uint64{1, 2, 3, 4, 5}
	view, err := pinned(s.DB(), "dyn")
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(view.Bits().Raw())
	insertions := view.Insertions()

	if _, err := c.Remove("dyn", held); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i < 100; i++ {
		id := 1000 + i
		if _, err := c.Add(wire.AddSet{Key: "dyn", Dynamic: true, IDs: []uint64{id, id + 5000}}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if _, err := c.Remove("dyn", []uint64{id}); err != nil {
				t.Fatal(err)
			}
		}
		if now := s.DB().Filter("dyn"); now == view || !now.Contains(id+5000) || now.Insertions() != s.DB().Membership("dyn").Live() {
			t.Fatalf("write %d: the served view did not follow the write", i)
		}
	}
	if !slices.Equal(view.Bits().Raw(), before) || view.Insertions() != insertions {
		t.Fatal("later writes changed the view a request had pinned")
	}
	for _, id := range held {
		if !view.Contains(id) {
			t.Fatalf("the pinned view lost %d", id)
		}
		if s.DB().Filter("dyn").Contains(id) {
			t.Fatalf("the served view still holds the removed %d", id)
		}
	}
}
