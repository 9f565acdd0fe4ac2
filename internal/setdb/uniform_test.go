package setdb

import (
	"math/rand"
	"testing"

	"repro/internal/bloom"
	"repro/internal/membership"
	"repro/internal/stats"
)

// enumerableOptions is a database small enough to enumerate: 2 048 ids under 16
// leaves of 128, and filters of 1 024 bits, so that a set of a few dozen ids
// has a false-positive share worth sampling.
func enumerableOptions() Options {
	return Options{Namespace: 2048, Bits: 1024, K: 3, Seed: 3, TreeDepth: 4}
}

// positivesOf enumerates what exact draws from f are uniform over: every id
// of the namespace it answers for.
func positivesOf(db *DB, f *bloom.Filter) map[uint64]int {
	index := map[uint64]int{}
	for x := uint64(0); x < db.Options().Namespace; x++ {
		if f.Contains(x) {
			index[x] = len(index)
		}
	}
	return index
}

// TestUniformExactAcrossVersions is the exactness gate of the uniform path
// where it is served from: the database, whose exact draws are picks from the
// pinned version's packed positives, on every backend. A key grows through
// three versions; each version's positives are enumerated exhaustively, and
// draws from it — 64 a call on the filter pinned at that version, as a
// request's chunks are, starting with the version's very first draw, and
// interleaved with draws on the filter still held from the version before —
// must be positives of that version, uniform over them by the paper's Table 5
// chi-squared test. One seed lands a legitimate p below 0.08 one time in
// twelve, and the draws' rng is the pooled workers', seeded afresh each run,
// so each version is gated on a majority of nine seeds: five rejections in
// nine come by chance once in ≈ 3 200 versions, ≈ 0.3 % of runs (a majority
// of five failed ≈ 4 % of runs).
func TestUniformExactAcrossVersions(t *testing.T) {
	if testing.Short() {
		t.Skip("uniformity test needs 130·n samples a version")
	}
	const seeds, versions, perVersion = 9, 3, 30
	for _, backend := range []membership.Kind{membership.KindBloom, membership.KindCounting} {
		t.Run(string(backend), func(t *testing.T) {
			var passes [versions]int
			for seed := int64(1); seed <= seeds; seed++ {
				rng := rand.New(rand.NewSource(seed))
				opts := enumerableOptions()
				dynamic := backend != membership.KindBloom
				if dynamic {
					opts.Backend = backend
				}
				db, err := Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				type version struct {
					f      *bloom.Filter
					index  map[uint64]int
					counts []int
				}
				draw := func(when string, ver *version, n int) {
					t.Helper()
					ids, err := db.SampleExactFrom(ver.f, n)
					if err != nil || len(ids) != n {
						t.Fatalf("seed %d, %s: %d of %d ids, %v", seed, when, len(ids), n, err)
					}
					for _, x := range ids {
						j, ok := ver.index[x]
						if !ok {
							t.Fatalf("seed %d, %s: drew %d, not a positive of the version drawn from", seed, when, x)
						}
						ver.counts[j]++
					}
				}
				var vers []*version
				for v := 0; v < versions; v++ {
					ids := make([]uint64, perVersion)
					for i := range ids {
						ids[i] = uint64(rng.Intn(2048))
					}
					if err := db.AddMany(Write{Key: "k", IDs: ids, Dynamic: dynamic}); err != nil {
						t.Fatal(err)
					}
					cur := &version{f: db.Filter("k")}
					cur.index = positivesOf(db, cur.f)
					cur.counts = make([]int, len(cur.index))
					for drawn, rounds := 0, stats.RecommendedRounds(len(cur.index)); drawn < rounds; drawn += 64 {
						draw("current version", cur, 64)
						if v > 0 {
							draw("held version", vers[v-1], 8)
						}
					}
					vers = append(vers, cur)
				}
				// A version whose positives outweigh its 128-byte filter (the
				// later ones here) declines and scans per call.
				if st := db.Stats(); st.PositivesScans < versions || st.DrawsDescended != 0 {
					t.Fatalf("seed %d: %d scans and %d descents for %d versions drawn from exactly", seed, st.PositivesScans, st.DrawsDescended, versions)
				}
				for v, ver := range vers {
					res, err := stats.ChiSquaredUniform(ver.counts)
					if err != nil {
						t.Fatal(err)
					}
					t.Logf("seed %d version %d: %d positives, %v", seed, v+1, len(ver.index), res)
					if !res.Reject(0.08) {
						passes[v]++
					}
				}
			}
			for v, n := range passes {
				if n <= seeds/2 {
					t.Errorf("version %d: uniformity rejected on %d/%d seeds at the paper's significance level", v+1, seeds-n, seeds)
				}
			}
		})
	}
}
