package setdb

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// enumerableOptions is a database small enough to enumerate: 2 048 ids under 16
// leaves of 128, and filters of 1 024 bits, so that a set of a few dozen ids
// has a false-positive share worth sampling.
func enumerableOptions() Options {
	return Options{Namespace: 2048, Bits: 1024, K: 3, Seed: 3, TreeDepth: 4}
}

// positivesOf enumerates what uniform draws from the current version of key
// are uniform over: every id of the namespace its filter answers for.
func positivesOf(db *DB, key string) map[uint64]int {
	f := db.Filter(key)
	index := map[uint64]int{}
	for x := uint64(0); x < db.Options().Namespace; x++ {
		if f.Contains(x) {
			index[x] = len(index)
		}
	}
	return index
}

// TestUniformExactAcrossVersions is the exactness gate of the uniform path
// where it is served from: the database, whose samplers are bound one to a
// version and all to the key's one calibration. A key grows through three
// versions; each version's positives are enumerated exhaustively, and draws
// from it — by samplers asked for anew every 64 draws, as requests do, and
// interleaved with draws by a sampler still held from the version before,
// so that the shared safety factor is read and raised by both — must be
// positives of that version, uniform over them by the paper's Table 5
// chi-squared test. One seed lands a legitimate p below 0.08 one time in
// twelve, so each version is gated on a majority of five seeds.
func TestUniformExactAcrossVersions(t *testing.T) {
	if testing.Short() {
		t.Skip("uniformity test needs 130·n samples a version")
	}
	const seeds, versions, perVersion = 5, 3, 30
	var passes [versions]int
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, err := Open(enumerableOptions())
		if err != nil {
			t.Fatal(err)
		}
		type version struct {
			index  map[uint64]int
			counts []int
			us     *core.UniformSampler // the last one bound to it
		}
		count := func(when string, ver *version, x uint64, err error) {
			t.Helper()
			j, ok := ver.index[x]
			if err != nil || !ok {
				t.Fatalf("seed %d, %s: drew %d, %v; want a positive of the version drawn from", seed, when, x, err)
			}
			ver.counts[j]++
		}
		var vers []*version
		for v := 0; v < versions; v++ {
			ids := make([]uint64, perVersion)
			for i := range ids {
				ids[i] = uint64(rng.Intn(2048))
			}
			if err := db.Add("k", ids...); err != nil {
				t.Fatal(err)
			}
			cur := &version{index: positivesOf(db, "k")}
			cur.counts = make([]int, len(cur.index))
			for drawn, rounds := 0, stats.RecommendedRounds(len(cur.index)); drawn < rounds; {
				if cur.us, err = db.UniformSampler("k"); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 64 && drawn < rounds; i++ {
					x, err := cur.us.Sample(rng, nil)
					count("current version", cur, x, err)
					drawn++
					if v > 0 && i%8 == 0 {
						held := vers[v-1]
						x, err := held.us.Sample(rng, nil)
						count("held version", held, x, err)
					}
				}
			}
			vers = append(vers, cur)
		}
		for v, ver := range vers {
			res, err := stats.ChiSquaredUniform(ver.counts)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("seed %d version %d: %d positives, %v (C=%.0f, clamped=%d)", seed, v+1, len(ver.index), res, ver.us.SafetyFactor(), ver.us.Stats().Clamped)
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
}

// TestUniformCalibrationLivesWithItsKey follows one calibration through the
// lifetimes the entry gives it: what the draws learned survives a write to
// the key, and is gone — fresh, not reset in place — after Delete and re-Add
// and after a reload of the database; a removable key never has one.
func TestUniformCalibrationLivesWithItsKey(t *testing.T) {
	// A filter this loaded answers for more than 8 times the ids its
	// cardinality estimate counts (logged below), and acceptance
	// probabilities that sum over the positives to (positives ÷ n̂) ÷ C cannot
	// all stay below 1 at the initial C = 8: draws must clamp, and double C,
	// before they settle.
	opts := enumerableOptions()
	opts.Bits = 128
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	ids := make([]uint64, 60)
	for i := range ids {
		ids[i] = uint64(rng.Intn(2048))
	}
	if err := db.Add("k", ids...); err != nil {
		t.Fatal(err)
	}
	us, err := db.UniformSampler("k")
	if err != nil {
		t.Fatal(err)
	}
	initial := us.SafetyFactor()
	for i := 0; i < 2000; i++ {
		if _, err := us.Sample(rng, nil); err != nil {
			t.Fatal(err)
		}
	}
	learned, counted := us.SafetyFactor(), us.Stats()
	if counted.Clamped == 0 || learned < 2*initial {
		t.Fatalf("no clamp forced: C %v → %v, %+v", initial, learned, counted)
	}
	t.Logf("%d positives at n̂ ≈ %.0f: C %v → %v, %+v", len(positivesOf(db, "k")), db.Filter("k").EstimateCardinality(), initial, learned, counted)

	// A write to the key: a new version, the same calibration.
	if err := db.Add("k", 7, 8, 9); err != nil {
		t.Fatal(err)
	}
	grown, err := db.UniformSampler("k")
	if err != nil {
		t.Fatal(err)
	}
	if grown.SafetyFactor() != learned || grown.Stats() != counted || grown.MaxAttempts() != us.MaxAttempts() {
		t.Fatalf("after Add: C %v, %+v; want what the draws before it learned: C %v, %+v", grown.SafetyFactor(), grown.Stats(), learned, counted)
	}
	if st, ok := db.Stats().Samplers["k"]; !ok || st.Attempts != counted.Attempts || st.Clamped != counted.Clamped || st.SafetyFactor != learned {
		t.Fatalf("Stats().Samplers[k] = %+v, %v; want the same calibration", st, ok)
	}

	// A reload starts every key afresh: a calibration is not persisted.
	var bundle bytes.Buffer
	if _, err := db.SnapshotView().WriteBundleTo(&bundle); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadBundle(&bundle)
	if err != nil {
		t.Fatal(err)
	}
	// So does Delete and re-Add: the calibration went with the key.
	if !db.Delete("k") {
		t.Fatal("Delete(k) = false")
	}
	if err := db.Add("k", ids...); err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*DB{"after Delete and re-Add": db, "after a reload": loaded} {
		fresh, err := d.UniformSampler("k")
		if err != nil {
			t.Fatal(err)
		}
		if fresh.SafetyFactor() != initial || fresh.Stats().Attempts != 0 {
			t.Errorf("%s: C %v, %+v; want a fresh calibration (C %v, nothing counted)", name, fresh.SafetyFactor(), fresh.Stats(), initial)
		}
		if _, ok := d.Stats().Samplers["k"]; ok {
			t.Errorf("%s: Stats() reports a sampler no draw has used", name)
		}
	}
	// The sampler held from the first lifetime kept its calibration to itself.
	if us.SafetyFactor() != learned {
		t.Errorf("the deleted lifetime's calibration moved: C %v, want %v", us.SafetyFactor(), learned)
	}

	if err := db.AddDynamic("d", 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := db.UniformSampler("d"); !errors.Is(err, ErrNotPlain) {
		t.Fatalf("UniformSampler of a removable key: %v, want ErrNotPlain", err)
	}
}
