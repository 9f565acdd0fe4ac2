package setdb

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/membership"
)

// openShape opens a pruned database planned like one of the benchmark's
// servers (accuracy 0.9, k = 3) and ingests keys k0, k1, … of idsPerKey
// uniform ids each. It returns the ids by key.
func openShape(tb testing.TB, setSize, namespace uint64, keys, idsPerKey int, dynamic bool) (*DB, [][]uint64) {
	tb.Helper()
	opts, err := PlanOptions(0.9, setSize, namespace, 3)
	if err != nil {
		tb.Fatal(err)
	}
	opts.Pruned = true
	if dynamic {
		opts.Backend = membership.KindCounting
	}
	db, err := Open(opts)
	if err != nil {
		tb.Fatal(err)
	}
	data := rand.New(rand.NewSource(1))
	ids := make([][]uint64, keys)
	for k := range ids {
		ids[k] = make([]uint64, idsPerKey)
		for i := range ids[k] {
			ids[k][i] = uint64(data.Int63n(int64(namespace)))
		}
		if err := db.AddMany(Write{Key: fmt.Sprintf("k%d", k), IDs: ids[k], Dynamic: dynamic}); err != nil {
			tb.Fatal(err)
		}
	}
	return db, ids
}

// spend serves requests frames of n draws from key and returns the
// estimates they computed between them.
func spend(t *testing.T, db *DB, key string, requests, n int) (computed uint64) {
	t.Helper()
	for i := 0; i < requests; i++ {
		var ops core.Ops
		ids, err := db.SampleManyFrom(db.Filter(key), n, 0, &ops)
		if err != nil || len(ids) != n {
			t.Fatalf("%s: %d of %d ids, err %v", key, len(ids), n, err)
		}
		computed += ops.Intersections
	}
	return computed
}

// TestVersionPaysForEachEstimateOnce gates the paper's cost unit across
// requests, on the shape the benchmark's batch workload serves (depth 7,
// 127 internal nodes, the index covering all of them): however many
// requests and chunks draw from one filter version they compute each of
// the tree's 254 estimates at most once between them — concurrent requests
// included: whoever reaches a cold pair first computes it and the others
// wait for it (TestReadMostlyKeyScansOnce races them) — and nothing at all
// from then on; growth that changes no node filter costs the version
// nothing, and growth that changes one root-to-leaf path costs it that
// path.
func TestVersionPaysForEachEstimateOnce(t *testing.T) {
	db, ids := openShape(t, 10_000, 1_000_000, 16, 10_000, false)
	const depth, all = 7, 2 * 127
	if d := db.tree.Depth(); d != depth {
		t.Fatalf("tree depth %d, the gates below are written for %d", d, depth)
	}

	// One version, six frames, then more: a 64-draw frame passes ≈ 95 of
	// the 127 internal nodes, so the sum climbs to 254 within a few frames
	// and stays there.
	total := spend(t, db, "k3", 6, 64)
	if total > all || total < all/2 {
		t.Fatalf("six frames on one version computed %d estimates; the tree has %d", total, all)
	}
	for i := 0; total < all && i < 500; i++ {
		total += spend(t, db, "k3", 1, 64)
	}
	if total != all {
		t.Fatalf("requests on one version computed %d estimates between them, want all %d and no more", total, all)
	}
	if c := spend(t, db, "k3", 20, 64) + spend(t, db, "k3", 50, 1); c != 0 {
		t.Fatalf("a version with every pair remembered computed %d estimates", c)
	}

	// Ten chunks of a stream on one pinned view of another key.
	f := db.Filter("k7")
	total = 0
	for chunk := 0; chunk < 10; chunk++ {
		var ops core.Ops
		if _, err := db.SampleManyFrom(f, 64, 0, &ops); err != nil {
			t.Fatal(err)
		}
		total += ops.Intersections
	}
	if total > all || total < all/2 {
		t.Fatalf("ten chunks on one pinned view computed %d estimates; the tree has %d", total, all)
	}

	// A request replayed with the rng state of an earlier one walks the
	// same paths and computes nothing, on a version nobody has sampled.
	g := db.Filter("k5")
	var first, replay core.Ops
	w := &sampleWorker{rng: rand.New(rand.NewSource(4))}
	if _, _, err := w.draw(db.tree, g, 64, &first, nil); err != nil {
		t.Fatal(err)
	}
	w.rng = rand.New(rand.NewSource(4))
	if _, _, err := w.draw(db.tree, g, 64, &replay, nil); err != nil {
		t.Fatal(err)
	}
	if first.Intersections == 0 || replay.Intersections != 0 || w.tally.Intersections != 0 || w.tally.Remembered != 2*depth*64 {
		t.Fatalf("a frame computed %d estimates, its replay computed %d and read %d back", first.Intersections, replay.Intersections, w.tally.Remembered)
	}

	// Growth by ids the tree already covers publishes no node filter, so
	// the fully remembered version still computes nothing.
	if err := db.Add("k0", ids[1][:500]...); err != nil {
		t.Fatal(err)
	}
	if c := spend(t, db, "k3", 20, 64); c != 0 {
		t.Fatalf("after growth that changed no node filter a remembered version computed %d estimates", c)
	}

	// One id its leaf does not answer for (a leaf filter is 1.4 % full; the
	// c == 0 below would say otherwise) republishes at most the depth+1
	// filters of its path, each the child in one pair.
	fresh := uint64(0)
	for ; db.Filter("k3").Contains(fresh) || db.Filter("k0").Contains(fresh); fresh++ {
	}
	before := db.tree.Nodes()
	if err := db.Add("k0", fresh); err != nil {
		t.Fatal(err)
	}
	if db.tree.Nodes() != before {
		t.Fatal("the id was meant to land in an existing leaf")
	}
	if c := spend(t, db, "k3", 200, 64); c == 0 || c > 2*depth {
		t.Fatalf("after one new id in the tree a remembered version computed %d estimates, want 1 to %d", c, 2*depth)
	}
	if c := spend(t, db, "k3", 20, 64); c != 0 {
		t.Fatalf("the path recomputed, the version computed %d more estimates", c)
	}
}

// TestPointDrawPaysForTheLevelsBelowTheIndex is the same gate on the shape
// of the benchmark's point workload (depth 8, the index covering the top 4
// levels): a single draw from a warmed key computes the 8 estimates of
// levels 4–7 and reads the 8 above them back.
func TestPointDrawPaysForTheLevelsBelowTheIndex(t *testing.T) {
	db, _ := openShape(t, 1_000, 100_000, 50, 1_000, false)
	if d, l := db.tree.Depth(), db.tree.VersionFor(db.Filter("k3")).Index().Levels(); d != 8 || l != 4 {
		t.Fatalf("depth %d, index levels %d; the gate is written for 8 and 4", d, l)
	}
	spend(t, db, "k3", 400, 1) // every one of the 15 pairs, but for a chance of 16·e⁻²⁵
	before := db.Stats()
	clean := 0
	for i := 0; i < 200; i++ {
		var ops core.Ops
		if _, err := db.SampleManyFrom(db.Filter("k3"), 1, 0, &ops); err != nil {
			t.Fatal(err)
		}
		if ops.Backtracks != 0 {
			continue
		}
		clean++
		if ops.Intersections != 8 || ops.NodesVisited != 9 {
			t.Fatalf("a warmed key's backtrack-free draw counted %v, want 8 estimates", &ops)
		}
	}
	if clean < 100 {
		t.Fatalf("only %d of 200 draws did not backtrack", clean)
	}
	// A warm request allocates its reply and nothing else; the version's
	// index was allocated once, by the first request to find it missing
	// (which is what the benchmark ledger's first pass over its keys counts
	// in setdb.sample_many_allocs_per_call). The limit leaves room for the
	// worker pool handing back less than it was given, as under -race.
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := db.SampleManyFrom(db.Filter("k3"), 1, 0, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs > 3 {
		t.Fatalf("a warmed key's single draw allocates %.1f times, want 1", allocs)
	}
	// The database's counters saw the same requests: the top four levels
	// read back, the bottom four computed.
	after := db.Stats()
	computed, remembered := after.EstimatesComputed-before.EstimatesComputed, after.EstimatesRemembered-before.EstimatesRemembered
	if computed < 8*200 || remembered < 8*200 {
		t.Fatalf("200 warmed single draws: Stats counted %d estimates computed, %d remembered", computed, remembered)
	}
}

// TestIndexSizeFollowsItsVersion: on the four benchmark shapes the index
// beside a query view is allowed an eighth of the view's own bytes (the
// issue's gate is a quarter), which is the whole tree on the batch shapes
// and its top four levels on the point shapes.
func TestIndexSizeFollowsItsVersion(t *testing.T) {
	for _, c := range []struct {
		workload           string
		setSize, namespace uint64
		dynamic            bool
		depth, levels      int
	}{
		{"batch_bin", 10_000, 1_000_000, false, 7, 7},
		{"reconstruct_http", 10_000, 1_000_000, false, 7, 7},
		{"point_http", 1_000, 100_000, false, 8, 4},
		{"mixed_wal", 1_000, 100_000, true, 8, 4},
	} {
		db, _ := openShape(t, c.setSize, c.namespace, 1, int(c.setSize), c.dynamic)
		f := db.Filter("k0")
		x := db.tree.VersionFor(f).Index()
		if db.tree.Depth() != c.depth || x.Levels() != c.levels || x.Bytes() == 0 || x.Bytes() > f.SizeBytes()/8 {
			t.Errorf("%s: depth %d, index of %d levels and %d bytes beside a view of %d bytes; want depth %d, %d levels, at most an eighth",
				c.workload, db.tree.Depth(), x.Levels(), x.Bytes(), f.SizeBytes(), c.depth, c.levels)
		}
	}
}
