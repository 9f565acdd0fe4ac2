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
	"repro/internal/wire"
)

// TestRemovedIdsAreNeverServed holds every path that serves ids to the
// contract of a removable key: what comes back is a positive of the version
// the request pinned, never an id removed before it. A removable key of 100
// ids has half of them removed, on a seed where no removed id is a false
// positive of what is left; then through the library, HTTP and binary a cold
// default draw, a stream (NDJSON or binary) that goes warm on its way, the
// draws that pay for the version's scan, a warm default draw, a uniform draw
// and a reconstruction each serve zero removed ids. (A reconstruction comes
// last because it pays for the scan itself; TestServedReconstructIsTheSet
// holds the one that scans to the version's positives.)
// (A backend whose query view kept removed ids, on this key, served a removed
// id in 1 903 of 4 000 cold default draws, and 22 among the 47 ids of its
// reconstruction.)
func TestRemovedIdsAreNeverServed(t *testing.T) {
	const (
		M     = 20_000
		added = 100
		draws = 4_000
	)
	for _, via := range []string{"library", "http", "binary"} {
		t.Run(via, func(t *testing.T) {
			opts, err := setdb.PlanOptions(0.9, added, M, 3)
			if err != nil {
				t.Fatal(err)
			}
			opts.Backend = membership.KindCounting
			db, err := setdb.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]uint64, added)
			for i, x := range rand.New(rand.NewSource(1)).Perm(M)[:added] {
				ids[i] = uint64(x)
			}
			if err := db.AddDynamic("r", ids...); err != nil {
				t.Fatal(err)
			}
			removed := ids[:added/2]
			if err := db.RemoveDynamic("r", removed...); err != nil {
				t.Fatal(err)
			}
			version := db.Membership("r")
			gone := map[uint64]bool{}
			for _, id := range removed {
				if version.Contains(id) {
					t.Fatalf("removed id %d is a false positive of the version: the test needs a seed where none is", id)
				}
				gone[id] = true
			}

			srv := New(db, Config{StreamChunk: 64})
			ts := httptest.NewServer(srv)
			t.Cleanup(ts.Close)
			bin := dialTestClient(t, serveBinaryForTest(t, srv))

			served := func(what string, got []uint64) {
				t.Helper()
				if len(got) == 0 {
					t.Fatalf("%s: no id served", what)
				}
				for _, id := range got {
					if gone[id] {
						t.Fatalf("%s: served %d, which was removed", what, id)
					}
					if !version.Contains(id) {
						t.Fatalf("%s: served %d, not a positive of the version", what, id)
					}
				}
			}
			sample := func(n int, uniform bool) []uint64 {
				t.Helper()
				switch via {
				case "library":
					if uniform {
						got, err := db.SampleExactFrom(db.Filter("r"), n)
						if err != nil {
							t.Fatal(err)
						}
						return got
					}
					got, err := db.SampleMany("r", n)
					if err != nil {
						t.Fatal(err)
					}
					return got
				case "http":
					var out SampleResponse
					if code := post(t, ts, "/v1/sample", fmt.Sprintf(`{"key":"r","n":%d,"uniform":%v}`, n, uniform), &out); code != http.StatusOK {
						t.Fatalf("sample: status %d", code)
					}
					return out.IDs
				}
				got, err := bin.Sample("r", n, wire.SampleOpts{Uniform: uniform})
				if err != nil {
					t.Fatal(err)
				}
				return got
			}
			reconstruct := func() []uint64 {
				t.Helper()
				switch via {
				case "library":
					got, err := db.AppendReconstructFrom(nil, db.Filter("r"))
					if err != nil {
						t.Fatal(err)
					}
					return got
				case "http":
					var out ReconstructResponse
					if code := post(t, ts, "/v1/reconstruct", `{"key":"r"}`, &out); code != http.StatusOK {
						t.Fatalf("reconstruct: status %d", code)
					}
					return out.IDs
				}
				got, err := bin.Reconstruct("r", false)
				if err != nil {
					t.Fatal(err)
				}
				return got
			}

			served("cold draw", sample(64, false))
			if st := db.Stats(); st.DrawsWarm != 0 || st.DrawsDescended == 0 {
				t.Fatalf("the first draw was not cold: %d warm, %d descended", st.DrawsWarm, st.DrawsDescended)
			}
			switch via {
			case "http":
				served("NDJSON stream", ndjsonStream(t, ts, fmt.Sprintf(`{"key":"r","n":%d,"stream":true}`, draws)))
			case "binary":
				var got []uint64
				if err := bin.SampleStream("r", draws, wire.SampleOpts{}, 256, func(ids []uint64) error {
					got = append(got, ids...)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				served("binary stream", got)
			}
			for i := 0; db.Stats().PositivesScans == 0; i++ {
				if i == 1000 {
					t.Fatal("the version never paid for its scan")
				}
				served("a draw paying for the scan", sample(64, false))
			}
			before := db.Stats().DrawsWarm
			served("warm draw", sample(draws, false))
			if warm := db.Stats().DrawsWarm - before; warm != draws {
				t.Fatalf("%d of the %d draws on a paid-up version were warm", warm, draws)
			}
			served("uniform draw", sample(draws, true))
			served("reconstruction", reconstruct())
		})
	}
}

// ndjsonStream POSTs a streaming sample request and returns the ids of its
// lines, failing on an in-band error or a stream without its done line.
func ndjsonStream(t *testing.T, ts *httptest.Server, body string) []uint64 {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sample", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ids []uint64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil || line.Error != "" {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		if line.Done {
			return ids
		}
		ids = append(ids, line.ID)
	}
	t.Fatalf("the stream ended without its done line (err %v)", sc.Err())
	return nil
}
