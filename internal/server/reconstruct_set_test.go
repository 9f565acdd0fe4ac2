package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/wire"
)

// leafOf returns the first id of the leaf of tree whose range holds x: the
// namespace [0, M) halved as the tree halves it, depth times.
func leafOf(tree *core.Tree, x uint64) uint64 {
	lo, hi := uint64(0), tree.Namespace()
	for range tree.Depth() {
		if mid := lo + (hi-lo+1)/2; x < mid {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// enumerated is what a served reconstruction is held to, found one id at a
// time: {x in a leaf's range : f.Contains(x)} over every id of the tree's
// namespace — on a pruned tree only the ids in the leaf of an occupied id.
func enumerated(tree *core.Tree, f *bloom.Filter, occupied []uint64) []uint64 {
	live := map[uint64]bool{}
	for _, x := range occupied {
		live[leafOf(tree, x)] = true
	}
	var out []uint64
	for x := uint64(0); x < tree.Namespace(); x++ {
		if (!tree.Pruned() || live[leafOf(tree, x)]) && f.Contains(x) {
			out = append(out, x)
		}
	}
	return out
}

// lacking returns the first of ids that got, ascending, does not hold, and
// whether there is one.
func lacking(got, ids []uint64) (uint64, bool) {
	for _, x := range ids {
		if _, found := slices.BinarySearch(got, x); !found {
			return x, true
		}
	}
	return 0, false
}

// TestServedReconstructIsTheSet holds /v1/reconstruct and the binary
// Reconstruct to §6's definition of a reconstruction — S ∪ S(B) over the
// tree's leaves, the stored ids and the filter's false positives — with no
// false negative, whatever the set's size against the design's: on both
// backends, full and pruned trees, and n stored at the design size, a tenth
// and a fortieth of it (where §5.6's threshold, pruning a walk, loses most of
// a set), both codecs answer with the enumeration of the key's published
// version, every stored id among it. The version's first request pays for
// its one scan and the next ones read the table back: over HTTP the cold
// reply and the warm one are the same bytes. A write (an add, and on the
// counting backend the remove that undoes it) publishes a successor, whose
// first request — over the other codec — scans once more and answers with
// its own enumeration.
func TestServedReconstructIsTheSet(t *testing.T) {
	const design = 400
	for _, backend := range []membership.Kind{membership.KindBloom, membership.KindCounting} {
		t.Run(string(backend), func(t *testing.T) {
			for _, pruned := range []bool{false, true} {
				for _, n := range []int{design, design / 10, design / 40} {
					shape := map[bool]string{false: "full", true: "pruned"}[pruned]
					t.Run(fmt.Sprintf("%s/n=%d", shape, n), func(t *testing.T) {
						srv, ts, bin, ids := servedKey(t, backend, 5, design, n, pruned, Config{})
						db := srv.DB()
						stored := map[uint64]bool{}
						for _, x := range ids {
							stored[x] = true
						}
						occupied := slices.Clone(ids)
						overHTTP := func(when string) (string, []uint64) {
							t.Helper()
							resp, err := http.Post(ts.URL+"/v1/reconstruct", "application/json", strings.NewReader(`{"key":"s"}`))
							if err != nil {
								t.Fatal(err)
							}
							defer resp.Body.Close()
							body, err := io.ReadAll(resp.Body)
							if err != nil || resp.StatusCode != http.StatusOK {
								t.Fatalf("%s: status %d, err %v", when, resp.StatusCode, err)
							}
							var out ReconstructResponse
							if err := json.Unmarshal(body, &out); err != nil || out.Count != len(out.IDs) {
								t.Fatalf("%s: a reply of %d ids counting %d (err %v)", when, len(out.IDs), out.Count, err)
							}
							return string(body), out.IDs
						}
						// check reconstructs the key's published version over both
						// codecs, the one named first, holds both replies to the
						// version's enumeration, and returns the HTTP reply.
						check := func(when, first string) string {
							t.Helper()
							want := enumerated(db.Tree(), db.Filter("s"), occupied)
							var members []uint64
							for x, in := range stored {
								if in {
									members = append(members, x)
								}
							}
							if x, ok := lacking(want, members); ok {
								t.Fatalf("%s: stored id %d is not a positive of its leaf", when, x)
							}
							scans := db.Stats().PositivesScans
							replies := map[string][]uint64{}
							var body string
							for _, codec := range []string{first, map[string]string{"http": "binary", "binary": "http"}[first]} {
								if codec == "http" {
									body, replies[codec] = overHTTP(when)
									continue
								}
								got, err := bin.Reconstruct("s", false)
								if err != nil {
									t.Fatalf("%s: %v", when, err)
								}
								replies[codec] = got
							}
							for codec, got := range replies {
								if x, ok := lacking(got, members); ok {
									t.Fatalf("%s, %s: stored id %d is missing from a reply of %d ids", when, codec, x, len(got))
								}
								if !slices.Equal(got, want) {
									t.Fatalf("%s, %s: a reply of %d ids, the version's leaves hold %d positives", when, codec, len(got), len(want))
								}
							}
							if st := db.Stats(); st.PositivesScans != scans+1 {
								t.Fatalf("%s: two requests on one version ran %d scans", when, st.PositivesScans-scans)
							}
							return body
						}
						cold := check("cold", "http")
						if warm, _ := overHTTP("warm"); warm != cold {
							t.Fatal("the warm reply differs from the cold one")
						}
						if st := db.Stats(); st.PositivesScans != 1 {
							t.Fatalf("three requests on one version ran %d scans", st.PositivesScans)
						}

						const written = 7
						writes := []string{"/v1/add"}
						if backend == membership.KindCounting {
							writes = append(writes, "/v1/remove")
						}
						was := stored[written]
						for i, path := range writes {
							body := fmt.Sprintf(`{"key":"s","ids":[%d],"dynamic":%v}`, written, backend != membership.KindBloom)
							if path == "/v1/remove" {
								body = fmt.Sprintf(`{"key":"s","ids":[%d]}`, written)
							}
							if code := post(t, ts, path, body, nil); code != http.StatusOK {
								t.Fatalf("%s: status %d", path, code)
							}
							if db.Tree().VersionFor(db.Filter("s")).Positives() != nil {
								t.Fatalf("the version %s published was born with a table", path)
							}
							stored[written] = path == "/v1/add" || was
							occupied = append(occupied, written)
							check("after "+path, []string{"binary", "http"}[i])
						}
					})
				}
			}
		})
	}

	// Readers reconstruct one pinned version — through the library, HTTP and
	// binary — while writes to another key grow the pruned tree leaf by leaf
	// under it, each one outdating the version's table. Whatever a reader
	// meets — the table, a table a leaf has just outdated, a scan — its reply
	// holds every id stored and nothing the version does not answer for. At
	// rest, the version's replies are its kept rendering until one more leaf
	// grows — one where the version has positives — and then they are the
	// new enumeration, that leaf's positives in it, never the bytes kept
	// before. Run under -race.
	t.Run("growth", func(t *testing.T) {
		srv, ts, bin, ids := servedKey(t, membership.KindBloom, 6, design, design/10, true, Config{})
		db := srv.DB()
		f := db.Filter("s")
		slices.Sort(ids)
		// One id at the start of each leaf the key leaves empty; the first
		// such leaf where f has positives is held back (late).
		occupied := map[uint64]bool{}
		for _, x := range ids {
			occupied[leafOf(db.Tree(), x)] = true
		}
		var grow, lateIDs []uint64
		late := uint64(servedM)
		for x := uint64(0); x < servedM; x++ {
			leaf := leafOf(db.Tree(), x)
			if leaf == x && !occupied[x] {
				grow = append(grow, x)
			}
			if !occupied[leaf] && f.Contains(x) && (late == servedM || late == leaf) {
				late = leaf
				lateIDs = append(lateIDs, x)
			}
		}
		if late == servedM {
			t.Fatal("the version has no positive in a leaf it leaves empty: the test needs one")
		}
		grow = slices.DeleteFunc(grow, func(x uint64) bool { return x == late })

		var grown atomic.Bool
		var replies atomic.Int64
		var readers sync.WaitGroup
		for via, read := range map[string]func() ([]uint64, error){
			"library": func() ([]uint64, error) { return db.AppendReconstructFrom(nil, f) },
			"http": func() ([]uint64, error) {
				resp, err := http.Post(ts.URL+"/v1/reconstruct", "application/json", strings.NewReader(`{"key":"s"}`))
				if err != nil {
					return nil, err
				}
				defer resp.Body.Close()
				var out ReconstructResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				return out.IDs, err
			},
			"binary": func() ([]uint64, error) { return bin.Reconstruct("s", false) },
		} {
			readers.Add(1)
			go func() {
				defer readers.Done()
				// Until the writer is done, and twenty rounds at least.
				for i := 0; !grown.Load() || i < 20; i++ {
					got, err := read()
					if err != nil {
						t.Errorf("%s: %v", via, err)
						return
					}
					replies.Add(1)
					if !slices.IsSorted(got) {
						t.Errorf("%s: ids out of order", via)
						return
					}
					for _, x := range got {
						if !f.Contains(x) {
							t.Errorf("%s: %d is not a positive of the version", via, x)
							return
						}
					}
					if x, ok := lacking(got, ids); ok {
						t.Errorf("%s: stored id %d is missing from a reply of %d ids", via, x, len(got))
						return
					}
				}
			}()
		}
		// Each new leaf waits for a reply, so that readers meet the tables the
		// writes outdate.
		for _, x := range grow {
			seen := replies.Load()
			if err := db.Add("g", x); err != nil {
				t.Fatal(err)
			}
			for replies.Load() == seen && !t.Failed() {
				runtime.Gosched()
			}
		}
		grown.Store(true)
		readers.Wait()
		if st := db.Stats(); len(grow) < 10 || st.PositivesDropped == 0 || st.PositivesScans < 2 {
			t.Fatalf("%d leaves grown under a pinned version dropped %d tables of %d scanned: the test needs all three", len(grow), st.PositivesDropped, st.PositivesScans)
		}
		got, err := db.AppendReconstructFrom(nil, f)
		if want := enumerated(db.Tree(), f, append(ids, grow...)); err != nil || !slices.Equal(got, want) {
			t.Fatalf("at rest the version answers %d ids, its leaves hold %d positives (err %v)", len(got), len(want), err)
		}

		overHTTP := func() string {
			t.Helper()
			resp, err := http.Post(ts.URL+"/v1/reconstruct", "application/json", strings.NewReader(`{"key":"s"}`))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, err %v", resp.StatusCode, err)
			}
			return string(body)
		}
		kept := overHTTP()
		if again := overHTTP(); again != kept {
			t.Fatal("two replies on a version at rest differ")
		}
		if err := db.Add("g", late); err != nil {
			t.Fatal(err)
		}
		want := enumerated(db.Tree(), f, append(append(ids, grow...), late))
		if x, ok := lacking(want, lateIDs); ok {
			t.Fatalf("the enumeration lacks %d, a positive of the leaf grown last", x)
		}
		if body := overHTTP(); body == kept || body != encodingJSON(t, ReconstructResponse{Key: "s", Count: len(want), IDs: want}) {
			t.Fatalf("after the tree grew a leaf with %d of the version's positives: a reply of %d bytes (%d before), not the enumeration's", len(lateIDs), len(body), len(kept))
		}
		if got, err := bin.Reconstruct("s", false); err != nil || !slices.Equal(got, want) {
			t.Fatalf("after the tree grew: the binary reply holds %d ids, the enumeration %d (err %v)", len(got), len(want), err)
		}
	})

	// A version whose table outgrows its own bytes declines it: each request
	// scans into a table of its own, renders it and drops both. Its replies
	// are still the enumeration, the same bytes twice in a row, and the
	// version never keeps a table.
	t.Run("declined", func(t *testing.T) {
		srv, ts, bin, _ := servedKey(t, membership.KindBloom, 7, design, 5*design/2, false, Config{})
		db := srv.DB()
		f := db.Filter("s")
		want := enumerated(db.Tree(), f, nil)
		doc := encodingJSON(t, ReconstructResponse{Key: "s", Count: len(want), IDs: want})
		var bodies []string
		for i := 0; i < 2; i++ {
			var body []byte
			resp, err := http.Post(ts.URL+"/v1/reconstruct", "application/json", strings.NewReader(`{"key":"s"}`))
			if err == nil {
				body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
			if err != nil || string(body) != doc {
				t.Fatalf("call %d: a reply of %d bytes, the enumeration's is %d (err %v)", i, len(body), len(doc), err)
			}
			bodies = append(bodies, string(body))
			if got, err := bin.Reconstruct("s", false); err != nil || !slices.Equal(got, want) {
				t.Fatalf("call %d: the binary reply holds %d ids, the enumeration %d (err %v)", i, len(got), len(want), err)
			}
		}
		if st := db.Stats(); bodies[0] != bodies[1] || st.PositivesDeclined == 0 || db.Tree().VersionFor(f).Positives() != nil {
			t.Fatalf("%d tables declined, and the version keeps one: %v", st.PositivesDeclined, db.Tree().VersionFor(f).Positives() != nil)
		}
	})

	// Sixteen requests, half over HTTP and half over binary, reconstruct one
	// fresh version at once: one scans, one of each codec renders, and every
	// reply is the enumeration. The table ends with one rendering attached,
	// holding both bodies. Run under -race.
	t.Run("first-render", func(t *testing.T) {
		srv, _, _, ids := servedKey(t, membership.KindBloom, 8, design, design, true, Config{})
		db := srv.DB()
		f := db.Filter("s")
		want := enumerated(db.Tree(), f, ids)
		doc := encodingJSON(t, ReconstructResponse{Key: "s", Count: len(want), IDs: want})
		// A second server over the same database: servedKey's has its one
		// binary listener, and a wire.Client is one goroutine's.
		other := New(db, Config{})
		ts := httptest.NewServer(other)
		t.Cleanup(ts.Close)
		addr := serveBinaryForTest(t, other)
		var clients []*wire.Client
		for range 8 {
			clients = append(clients, dialTestClient(t, addr))
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range 16 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if g%2 == 1 {
					if got, err := clients[g/2].Reconstruct("s", false); err != nil || !slices.Equal(got, want) {
						t.Errorf("binary %d: %d ids, the enumeration %d (err %v)", g, len(got), len(want), err)
					}
					return
				}
				var body []byte
				resp, err := http.Post(ts.URL+"/v1/reconstruct", "application/json", strings.NewReader(`{"key":"s"}`))
				if err == nil {
					body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				if err != nil || string(body) != doc {
					t.Errorf("http %d: a reply of %d bytes, the enumeration's is %d (err %v)", g, len(body), len(doc), err)
				}
			}()
		}
		close(start)
		wg.Wait()
		p := db.Tree().VersionFor(f).Positives()
		if p == nil || db.Stats().PositivesScans != 1 {
			t.Fatalf("sixteen first requests ran %d scans and kept a table: %v", db.Stats().PositivesScans, p != nil)
		}
		r, ok := p.Derived().(*rendering)
		if !ok || renderingOf(p) != r || string(r.jsonTail()) != doc[strings.Index(doc, `"ids":`)+len(`"ids":`):] ||
			!slices.Equal(r.wireBody(), wire.IDsResult{IDs: want}.Encode(nil)) {
			t.Fatalf("the table carries %T, not one rendering of both bodies", p.Derived())
		}
	})
}
