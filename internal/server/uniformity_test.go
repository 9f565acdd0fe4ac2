package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/setdb"
	"repro/internal/stats"
	"repro/internal/wire"
)

// uniformityServer serves, over both protocols, a full-tree database planned
// for the paper's accuracy 0.9 at M = 20 000 holding one key "s" of n ids on
// the given backend. It returns the server, its HTTP front, a binary client
// and the key's positives: every id of the namespace its published query view
// answers for, one Contains at a time.
func uniformityServer(t *testing.T, backend membership.Kind, seed int64, n int, cfg Config) (*Server, *httptest.Server, *wire.Client, map[uint64]int) {
	t.Helper()
	const M = 20_000
	opts, err := setdb.PlanOptions(0.9, uint64(n), M, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts.Seed = uint64(seed)
	if backend != membership.KindBloom {
		opts.Backend = backend
	}
	db, err := setdb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	data := rand.New(rand.NewSource(seed))
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(data.Intn(M))
	}
	if err := db.AddMany(setdb.Write{Key: "s", IDs: ids, Dynamic: backend != membership.KindBloom}); err != nil {
		t.Fatal(err)
	}
	srv := New(db, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	f := db.Filter("s")
	cell := map[uint64]int{}
	for x := uint64(0); x < M; x++ {
		if f.Contains(x) {
			cell[x] = len(cell)
		}
	}
	return srv, ts, dialTestClient(t, serveBinaryForTest(t, srv)), cell
}

// TestServedDefaultDrawPassesTable5 holds the default sampling path — no
// "uniform" flag — to the paper's own uniformity test (§7.2, Table 5) where
// it is claimed to pass it: on a filter version that has paid for its scan.
// For each backend, through POST /v1/sample and the binary Sample, T = 130·n
// draws over the n exhaustively enumerated positives of the pinned version
// are tested against uniform at the paper's 0.08 level, over nine seeded
// databases by majority (a true uniform sampler fails one seed in twelve);
// no draw is lost and every id is a positive. Algorithm 1's descent — what a
// cold version serves — fails the same test on every seed (bstbench -exp
// tab5: p_raw = 0.0000), which is not gated here but recorded in README.
//
// The "uniform": true arm is held to the same test where it claims more:
// from a version's very first request, with no warm-up — a fresh database
// per seed and codec, whose first request is the T uniform draws, all of
// them picks from the one scan that request paid for.
func TestServedDefaultDrawPassesTable5(t *testing.T) {
	const seeds = 9
	// passes counts ids over the version's positives and reports whether
	// they pass the paper's test.
	passes := func(t *testing.T, when string, ids []uint64, cell map[uint64]int) bool {
		t.Helper()
		counts := make([]int, len(cell))
		for _, x := range ids {
			i, ok := cell[x]
			if !ok {
				t.Fatalf("%s: drew %d, not a positive of the version", when, x)
			}
			counts[i]++
		}
		res, err := stats.ChiSquaredUniform(counts)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d positives, %v", when, len(cell), res)
		return !res.Reject(0.08)
	}
	for _, backend := range []membership.Kind{membership.KindBloom, membership.KindCounting} {
		t.Run(string(backend), func(t *testing.T) {
			passed := map[string]int{}
			for seed := int64(1); seed <= seeds; seed++ {
				srv, ts, bin, cell := uniformityServer(t, backend, seed, 200, Config{})
				for i := 0; srv.DB().Stats().PositivesScans == 0; i++ {
					if i == 10_000 {
						t.Fatal("the key never paid for its scan")
					}
					var out SampleResponse
					if code := post(t, ts, "/v1/sample", `{"key":"s","n":64}`, &out); code != 200 {
						t.Fatalf("status %d", code)
					}
				}
				rounds := stats.RecommendedRounds(len(cell))
				before := srv.DB().Stats()
				draw := map[string]func() []uint64{
					"http": func() []uint64 {
						var out SampleResponse
						if code := post(t, ts, "/v1/sample", fmt.Sprintf(`{"key":"s","n":%d}`, rounds), &out); code != 200 {
							t.Fatalf("status %d", code)
						}
						return out.IDs
					},
					"binary": func() []uint64 {
						ids, err := bin.Sample("s", rounds, wire.SampleOpts{})
						if err != nil {
							t.Fatal(err)
						}
						return ids
					},
				}
				for codec, fn := range draw {
					ids := fn()
					if len(ids) != rounds {
						t.Fatalf("seed %d, %s: a warm version returned %d of %d draws", seed, codec, len(ids), rounds)
					}
					if passes(t, fmt.Sprintf("seed %d, %s", seed, codec), ids, cell) {
						passed[codec]++
					}
				}
				if st := srv.DB().Stats(); st.DrawsWarm-before.DrawsWarm != uint64(2*rounds) || st.SampleDrawsLost != before.SampleDrawsLost || st.PositivesScans != 1 {
					t.Fatalf("seed %d: %d of %d draws were warm, %d lost, %d scans", seed,
						st.DrawsWarm-before.DrawsWarm, 2*rounds, st.SampleDrawsLost-before.SampleDrawsLost, st.PositivesScans)
				}
			}
			for _, codec := range []string{"http", "binary"} {
				if passed[codec] <= seeds/2 {
					t.Errorf("%s: the warm default draw passed Table 5's test on %d of %d seeds", codec, passed[codec], seeds)
				}
			}

			exact := map[string]int{}
			for seed := int64(1); seed <= seeds; seed++ {
				for _, codec := range []string{"http", "binary"} {
					srv, ts, bin, cell := uniformityServer(t, backend, seed, 200, Config{})
					rounds := stats.RecommendedRounds(len(cell))
					var ids []uint64
					if codec == "http" {
						var out SampleResponse
						if code := post(t, ts, "/v1/sample", fmt.Sprintf(`{"key":"s","n":%d,"uniform":true}`, rounds), &out); code != 200 {
							t.Fatalf("status %d", code)
						}
						ids = out.IDs
					} else {
						var err error
						if ids, err = bin.Sample("s", rounds, wire.SampleOpts{Uniform: true}); err != nil {
							t.Fatal(err)
						}
					}
					if len(ids) != rounds {
						t.Fatalf("seed %d, %s: a fresh version's uniform request returned %d of %d draws", seed, codec, len(ids), rounds)
					}
					if passes(t, fmt.Sprintf("uniform, seed %d, %s", seed, codec), ids, cell) {
						exact[codec]++
					}
					if st := srv.DB().Stats(); st.DrawsWarm != uint64(rounds) || st.DrawsDescended != 0 || st.SampleDrawsLost != 0 || st.PositivesScans != 1 {
						t.Fatalf("seed %d, %s: a fresh version's uniform request: %d picks of %d, %d descents, %d lost, %d scans", seed, codec,
							st.DrawsWarm, rounds, st.DrawsDescended, st.SampleDrawsLost, st.PositivesScans)
					}
				}
			}
			for _, codec := range []string{"http", "binary"} {
				if exact[codec] <= seeds/2 {
					t.Errorf("%s: the uniform draw on a fresh version passed Table 5's test on %d of %d seeds", codec, exact[codec], seeds)
				}
			}
		})
	}
}

// TestStreamGoingWarmKeepsItsVersion: a streaming request pins its key's
// version, starts by descent and — crossing the price several chunks in —
// finishes on picks from that version's positives. The key is written while
// the stream runs; on both codecs and every backend each id streamed is a
// positive of the version pinned, never one of the ids written since.
func TestStreamGoingWarmKeepsItsVersion(t *testing.T) {
	const n = 30_000
	for _, backend := range []membership.Kind{membership.KindBloom, membership.KindCounting} {
		for _, codec := range []string{"http", "binary"} {
			t.Run(string(backend)+"/"+codec, func(t *testing.T) {
				srv, ts, bin, cell := uniformityServer(t, backend, 3, 200, Config{StreamChunk: 64})
				var later []uint64
				for x := uint64(0); len(later) < 50; x++ {
					if _, positive := cell[x]; !positive {
						later = append(later, x)
					}
				}
				write := func() {
					if err := srv.DB().AddMany(setdb.Write{Key: "s", IDs: later, Dynamic: backend != membership.KindBloom}); err != nil {
						t.Fatal(err)
					}
				}
				var got []uint64
				if codec == "binary" {
					err := bin.SampleStream("s", n, wire.SampleOpts{}, 256, func(ids []uint64) error {
						if got == nil {
							write()
						}
						got = append(got, ids...)
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				} else {
					resp, err := http.Post(ts.URL+"/v1/sample", "application/json", strings.NewReader(fmt.Sprintf(`{"key":"s","n":%d,"stream":true}`, n)))
					if err != nil {
						t.Fatal(err)
					}
					defer resp.Body.Close()
					sc := bufio.NewScanner(resp.Body)
					for sc.Scan() {
						var line StreamLine
						if err := json.Unmarshal(sc.Bytes(), &line); err != nil || line.Error != "" {
							t.Fatalf("line %q: %v", sc.Text(), err)
						}
						if line.Done {
							break
						}
						if got == nil {
							write()
						}
						got = append(got, line.ID)
					}
					if err := sc.Err(); err != nil {
						t.Fatal(err)
					}
				}
				for _, x := range got {
					if _, ok := cell[x]; !ok {
						t.Fatalf("streamed %d, not a positive of the pinned version", x)
					}
				}
				st := srv.DB().Stats()
				if st.PositivesScans != 1 || st.DrawsWarm == 0 || st.DrawsDescended == 0 || st.DrawsWarm+st.DrawsDescended != n {
					t.Fatalf("the stream: %d scans, %d descents then %d warm draws of %d", st.PositivesScans, st.DrawsDescended, st.DrawsWarm, n)
				}
				if uint64(len(got))+st.SampleDrawsLost != n {
					t.Fatalf("%d ids streamed and %d draws lost of %d", len(got), st.SampleDrawsLost, n)
				}
			})
		}
	}
}

// TestServedReconstructIsTheWalk holds /v1/reconstruct and the binary
// Reconstruct, on every backend, to §6's walk as a caller with no version
// runs it (core.Tree.Reconstruct on the pinned view): the same ids — over
// HTTP the same bytes — while the key's version is cold, on the request that
// pays for its scan and once it is warm, with the counters saying which was
// which; and a write to the key (an add, and on the counting backend the
// remove that undoes it) starts its successor cold and as correct.
func TestServedReconstructIsTheWalk(t *testing.T) {
	for _, backend := range []membership.Kind{membership.KindBloom, membership.KindCounting} {
		t.Run(string(backend), func(t *testing.T) {
			srv, ts, bin, _ := uniformityServer(t, backend, 5, 200, Config{})
			db := srv.DB()
			// check reconstructs the key's published version through both
			// codecs and returns the HTTP reply.
			check := func(when string) string {
				t.Helper()
				want, err := db.Tree().Reconstruct(db.Filter("s"), core.PruneByEstimate, nil)
				if err != nil || len(want) < 50 {
					t.Fatalf("%s: the walk returns %d ids, err %v", when, len(want), err)
				}
				resp, err := http.Post(ts.URL+"/v1/reconstruct", "application/json", strings.NewReader(`{"key":"s"}`))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil || resp.StatusCode != 200 {
					t.Fatalf("%s: status %d, err %v", when, resp.StatusCode, err)
				}
				wantBody, _ := json.Marshal(ReconstructResponse{Key: "s", Count: len(want), IDs: want})
				if string(body) != string(wantBody)+"\n" {
					t.Fatalf("%s: /v1/reconstruct answered %d bytes, the walk encodes to %d", when, len(body), len(wantBody)+1)
				}
				ids, err := bin.Reconstruct("s", false)
				if err != nil || !slices.Equal(ids, want) {
					t.Fatalf("%s: the binary reply holds %d ids, the walk %d (err %v)", when, len(ids), len(want), err)
				}
				return string(body)
			}
			cold := check("cold")
			for i := 0; db.Stats().PositivesScans == 0; i++ {
				if i == 100 {
					t.Fatal("the key never paid for its scan")
				}
				check("renting")
			}
			before := db.Stats()
			if before.PositivesScans != 1 || before.ReconstructsWalked == 0 || before.ReconstructsWarm == 0 {
				t.Fatalf("going warm: %d scans, %d reconstructions walked, %d warm", before.PositivesScans, before.ReconstructsWalked, before.ReconstructsWarm)
			}
			if warm := check("warm"); warm != cold {
				t.Fatal("the warm reply differs from the cold one")
			}
			st := db.Stats()
			if st.ReconstructsWarm-before.ReconstructsWarm != 2 || st.ReconstructsWalked != before.ReconstructsWalked ||
				st.EstimatesComputed != before.EstimatesComputed || st.PositivesScans != 1 {
				t.Fatalf("two requests on a warm version: %d warm, %d walked, %d estimates computed, %d scans",
					st.ReconstructsWarm-before.ReconstructsWarm, st.ReconstructsWalked-before.ReconstructsWalked,
					st.EstimatesComputed-before.EstimatesComputed, st.PositivesScans)
			}

			// A write publishes a successor that knows nothing yet.
			writes := [][2]string{{"/v1/add", fmt.Sprintf(`{"key":"s","ids":[7],"dynamic":%v}`, backend != membership.KindBloom)}}
			if backend == membership.KindCounting {
				writes = append(writes, [2]string{"/v1/remove", `{"key":"s","ids":[7]}`})
			}
			for _, write := range writes {
				path := write[0]
				if code := post(t, ts, path, write[1], nil); code != 200 {
					t.Fatalf("%s: status %d", path, code)
				}
				if db.Tree().VersionFor(db.Filter("s")).Positives() != nil {
					t.Fatalf("the version %s published was born warm", path)
				}
				walked := db.Stats().ReconstructsWalked
				after := check("after " + path)
				// The add shows; the remove takes it back.
				if (after == cold) != (path == "/v1/remove") {
					t.Fatalf("the reply after %s: same as before the writes: %v", path, after == cold)
				}
				if db.Stats().ReconstructsWalked == walked {
					t.Fatalf("the successor of %s scanned no leaf", path)
				}
			}
		})
	}
}
