package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/membership"
	"repro/internal/setdb"
	"repro/internal/stats"
	"repro/internal/wire"
)

// servedM is the namespace of the databases these tests serve: small enough
// to enumerate one Contains at a time.
const servedM = 20_000

// uniformityServer serves, over both protocols, a full-tree database planned
// for the paper's accuracy 0.9 at servedM holding one key "s" of n ids on
// the given backend. It returns the server, its HTTP front, a binary client
// and the key's positives: every id of the namespace its published query view
// answers for, one Contains at a time.
func uniformityServer(t *testing.T, backend membership.Kind, seed int64, n int, cfg Config) (*Server, *httptest.Server, *wire.Client, map[uint64]int) {
	t.Helper()
	srv, ts, bin, _ := servedKey(t, backend, seed, uint64(n), n, false, cfg)
	f := srv.DB().Filter("s")
	cell := map[uint64]int{}
	for x := uint64(0); x < servedM; x++ {
		if f.Contains(x) {
			cell[x] = len(cell)
		}
	}
	return srv, ts, bin, cell
}

// servedKey serves, over both protocols, a database planned for the paper's
// accuracy 0.9 for design ids at servedM — on a full tree, or on one pruned
// to the leaves its ids occupy — holding one key "s" of n ids on the given
// backend. It returns the server, its HTTP front, a binary client and the
// ids stored.
func servedKey(t *testing.T, backend membership.Kind, seed int64, design uint64, n int, pruned bool, cfg Config) (*Server, *httptest.Server, *wire.Client, []uint64) {
	t.Helper()
	opts, err := setdb.PlanOptions(0.9, design, servedM, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts.Seed = uint64(seed)
	opts.Pruned = pruned
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
		ids[i] = uint64(data.Intn(servedM))
	}
	if err := db.AddMany(setdb.Write{Key: "s", IDs: ids, Dynamic: backend != membership.KindBloom}); err != nil {
		t.Fatal(err)
	}
	srv := New(db, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, dialTestClient(t, serveBinaryForTest(t, srv)), ids
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
