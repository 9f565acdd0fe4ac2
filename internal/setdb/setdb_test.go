package setdb

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
)

func testOptions(t *testing.T, pruned bool) Options {
	t.Helper()
	opts, err := PlanOptions(0.9, 500, 1_000_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts.Pruned = pruned
	opts.Seed = 7
	return opts
}

func TestPlanOptions(t *testing.T) {
	opts, err := PlanOptions(0.9, 1000, 1_000_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Bits == 0 || opts.TreeDepth == 0 {
		t.Fatalf("degenerate options: %+v", opts)
	}
	if _, err := PlanOptions(0, 1000, 100, 3); err == nil {
		t.Fatal("bad accuracy accepted")
	}
}

// TestOpenDerivesDepth holds Open's depth for TreeDepth 0 to PlanTree's
// for the same namespace and filter size, up to §8's 2.2·10⁹ ids. The trees
// are pruned so that the largest namespace is not built in full.
func TestOpenDerivesDepth(t *testing.T) {
	for _, M := range []uint64{1e3, 1e6, 1e7, 2.2e9} {
		for _, acc := range []float64{0.5, 0.7, 0.9, 0.99} {
			plan, err := core.PlanTree(acc, 100, M, 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			db, err := Open(Options{Namespace: M, Bits: plan.Bits, K: plan.K, Pruned: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := db.Options().TreeDepth; got != plan.Depth || db.Tree().Depth() != plan.Depth {
				t.Errorf("M=%d accuracy %.2f: Open derived depth %d (tree %d), PlanTree %d",
					M, acc, got, db.Tree().Depth(), plan.Depth)
			}
		}
	}
}

func TestAddSampleReconstruct(t *testing.T) {
	db, err := Open(testOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	members := []uint64{5, 99_999, 500_000, 999_999}
	if err := db.Add("alpha", members...); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 1 {
		t.Fatalf("Len = %d", db.Len())
	}
	for _, id := range members {
		ok, err := db.Contains("alpha", id)
		if err != nil || !ok {
			t.Fatalf("Contains(%d) = %v, %v", id, ok, err)
		}
	}
	x, err := db.Sample("alpha", rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := db.Contains("alpha", x); !ok {
		t.Fatalf("sample %d not a member", x)
	}
	got, err := db.Reconstruct("alpha", core.PruneByAndBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := map[uint64]bool{}
	for _, id := range got {
		found[id] = true
	}
	for _, id := range members {
		if !found[id] {
			t.Fatalf("reconstruction missing %d", id)
		}
	}
}

func TestMissingKeyErrors(t *testing.T) {
	db, err := Open(testOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	if _, err := db.Sample("nope", rng, nil); err == nil {
		t.Fatal("missing key accepted by Sample")
	}
	if _, err := db.SampleN("nope", 2, true, rng, nil); err == nil {
		t.Fatal("missing key accepted by SampleN")
	}
	if _, err := db.Reconstruct("nope", core.PruneByEstimate, nil); err == nil {
		t.Fatal("missing key accepted by Reconstruct")
	}
	if _, err := db.Contains("nope", 1); err == nil {
		t.Fatal("missing key accepted by Contains")
	}
	if _, err := db.SampleExactFrom(db.Filter("nope"), 1); !errors.Is(err, ErrNoSet) {
		t.Fatalf("SampleExactFrom of a missing key's filter: %v, want ErrNoSet", err)
	}
	if _, err := db.IntersectionEstimate("nope", "nope2"); err == nil {
		t.Fatal("missing keys accepted by IntersectionEstimate")
	}
	if db.Filter("nope") != nil {
		t.Fatal("missing key returned a filter")
	}
}

func TestAddValidatesNamespace(t *testing.T) {
	db, err := Open(testOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("a", 1_000_000); err == nil {
		t.Fatal("out-of-namespace id accepted")
	}
}

func TestDeleteAndKeys(t *testing.T) {
	db, err := Open(testOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	db.Add("b", 1)
	db.Add("a", 2)
	keys := db.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("Keys = %v", keys)
	}
	if !db.Delete("a") {
		t.Fatal("Delete existing returned false")
	}
	if db.Delete("a") {
		t.Fatal("Delete missing returned true")
	}
	if db.Len() != 1 {
		t.Fatalf("Len = %d", db.Len())
	}
}

func TestPrunedGrowsTree(t *testing.T) {
	db, err := Open(testOptions(t, true))
	if err != nil {
		t.Fatal(err)
	}
	before := db.Tree().Nodes()
	if err := db.Add("x", 123, 999_000); err != nil {
		t.Fatal(err)
	}
	if db.Tree().Nodes() <= before {
		t.Fatal("pruned tree did not grow")
	}
	rng := rand.New(rand.NewSource(3))
	x, err := db.Sample("x", rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if x != 123 && x != 999_000 {
		// Could be a false positive within occupied ranges; must at least
		// answer positively.
		if ok, _ := db.Contains("x", x); !ok {
			t.Fatalf("sample %d not a member", x)
		}
	}
}

func TestIntersectionEstimate(t *testing.T) {
	db, err := Open(testOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	var shared, aOnly, bOnly []uint64
	for i := uint64(0); i < 300; i++ {
		shared = append(shared, i*3)
		aOnly = append(aOnly, 500_000+i*3)
		bOnly = append(bOnly, 700_000+i*3)
	}
	db.Add("a", append(shared, aOnly...)...)
	db.Add("b", append(shared, bOnly...)...)
	est, err := db.IntersectionEstimate("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if est < 150 || est > 450 {
		t.Fatalf("estimate %.1f, want ~300", est)
	}
}

// TestExactDrawsThroughDB: exact draws from a key's pinned filter are its
// positives, a foreign filter is refused, and the draws are counted as picks.
func TestExactDrawsThroughDB(t *testing.T) {
	db, err := Open(testOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	db.Add("s", 10, 20, 30, 40)
	f := db.Filter("s")
	ids, err := db.SampleExactFrom(f, 50)
	if err != nil || len(ids) != 50 {
		t.Fatalf("SampleExactFrom: %d ids, %v", len(ids), err)
	}
	for _, x := range ids {
		if !f.Contains(x) {
			t.Fatalf("exact sample %d not a positive", x)
		}
	}
	if st := db.Stats(); st.DrawsWarm != 50 || st.DrawsDescended != 0 || st.PositivesScans != 1 {
		t.Fatalf("50 exact draws on a fresh version: %d picks, %d descents, %d scans", st.DrawsWarm, st.DrawsDescended, st.PositivesScans)
	}
	opts := testOptions(t, false)
	opts.Bits++
	other, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	other.Add("s", 10)
	if _, err := db.SampleExactFrom(other.Filter("s"), 1); err == nil {
		t.Fatal("a filter of another profile was accepted")
	}
}

func TestBundleRoundTrip(t *testing.T) {
	db, err := Open(testOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	db.Add("alpha", 1, 2, 3)
	db.Add("beta", 100_000, 200_000)

	got := reload(t, db)
	if got.Len() != 2 {
		t.Fatalf("Len = %d", got.Len())
	}
	for _, id := range []uint64{1, 2, 3} {
		if ok, _ := got.Contains("alpha", id); !ok {
			t.Fatalf("loaded db missing alpha/%d", id)
		}
	}
	if !got.Filter("beta").Equal(db.Filter("beta")) {
		t.Fatal("beta filter differs after round trip")
	}
	rng := rand.New(rand.NewSource(5))
	if _, err := got.Sample("beta", rng, nil); err != nil {
		t.Fatalf("loaded db cannot sample: %v", err)
	}
}

func TestReadBundleRejectsGarbage(t *testing.T) {
	if _, err := ReadBundle(bytes.NewReader([]byte("not a db"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadBundle(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestPrunedSaveLoad: a pruned database's file loads with nothing beside it
// and covers what grew the tree after Open — which leaves exist is in the
// file, not in a list the caller kept.
func TestPrunedSaveLoad(t *testing.T) {
	db, err := Open(testOptions(t, true))
	if err != nil {
		t.Fatal(err)
	}
	db.Add("s1", 5, 10)
	db.Add("s2", 500_000, 900_001)
	nodes := db.Tree().Nodes()
	db.Add("s1", 250_000) // a leaf no earlier write had made
	if db.Tree().Nodes() == nodes {
		t.Fatal("the late id grew no node: the test needs it to")
	}

	path := filepath.Join(t.TempDir(), "sets.db")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	x, err := got.Sample("s1", rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := got.Contains("s1", x); !ok {
		t.Fatalf("sample %d not a member", x)
	}
	for key, ids := range map[string][]uint64{"s1": {5, 10, 250_000}, "s2": {500_000, 900_001}} {
		recon, err := got.Reconstruct(key, core.PruneByAndBits, nil)
		if err != nil {
			t.Fatal(err)
		}
		found := map[uint64]bool{}
		for _, id := range recon {
			found[id] = true
		}
		for _, id := range ids {
			if !found[id] {
				t.Fatalf("pruned reconstruction of %s missing member %d: %v", key, id, recon)
			}
		}
	}
}

func TestSaveLoadFullDB(t *testing.T) {
	db, err := Open(testOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	db.Add("k", 42)
	path := filepath.Join(t.TempDir(), "full.db")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := got.Contains("k", 42); !ok {
		t.Fatal("loaded db missing element")
	}
}

func TestConcurrentAccess(t *testing.T) {
	db, err := Open(testOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		db.Add("set", uint64(i*1000))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 50; i++ {
				switch i % 4 {
				case 0:
					db.Sample("set", rng, nil)
				case 1:
					db.Contains("set", uint64(i))
				case 2:
					db.Add("set", uint64(g*10000+i))
				case 3:
					db.Keys()
				}
			}
		}(g)
	}
	wg.Wait()
	if db.Len() != 1 {
		t.Fatalf("Len = %d", db.Len())
	}
}
