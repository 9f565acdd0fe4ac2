package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/hashfam"
)

// TestInsertBatchMatchesSequentialInsert pins that one batch, grown in one
// walk, stores exactly what repeated single Inserts store, byte for byte.
func TestInsertBatchMatchesSequentialInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	M := uint64(1 << 20)
	cfg := testConfig(t, M, 200, 0.9, 10)
	ids := uniformSet(rng, M, 3000)

	batched, err := BuildPruned(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := batched.InsertBatch(ids); err != nil {
		t.Fatal(err)
	}
	single, err := BuildPruned(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := single.Insert(id); err != nil {
			t.Fatal(err)
		}
	}
	if batched.Nodes() != single.Nodes() {
		t.Fatalf("Nodes: batched %d, single %d", batched.Nodes(), single.Nodes())
	}
	if !bytes.Equal(nodeBytes(batched), nodeBytes(single)) {
		t.Fatal("one batch and single Inserts of the same ids grew different trees")
	}
	q := buildQueryFilter(t, batched, ids[:200])
	for _, tree := range []*Tree{batched, single} {
		got, err := tree.Reconstruct(q, PruneByAndBits, nil)
		if err != nil {
			t.Fatal(err)
		}
		found := map[uint64]bool{}
		for _, x := range got {
			found[x] = true
		}
		for _, id := range ids[:200] {
			if !found[id] {
				t.Fatalf("id %d missing from reconstruction", id)
			}
		}
	}
}

// TestInsertBatchRejectsOutOfRange pins the all-or-nothing validation:
// one bad id fails the whole batch before anything is published.
func TestInsertBatchRejectsOutOfRange(t *testing.T) {
	cfg := testConfig(t, 1<<16, 100, 0.9, 8)
	tree, err := BuildPruned(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.InsertBatch([]uint64{1, 2, 1 << 16}); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	if tree.Nodes() != 0 || tree.GrowthEpoch() != 0 {
		t.Fatalf("rejected batch published state: nodes=%d epoch=%d", tree.Nodes(), tree.GrowthEpoch())
	}
	full, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.InsertBatch([]uint64{1}); err == nil {
		t.Fatal("InsertBatch accepted on a full tree")
	}
}

// TestConcurrentGrowthAndQueries hammers a pruned tree with parallel
// InsertBatch writers in different subtrees while readers sample,
// reconstruct, run the shared uniform sampler and write the tree out, which
// must load. Under -race this is the regression test for growth beside
// lock-free readers; afterwards every inserted id must be reachable, the
// epoch must count every batch, and the tree must be byte for byte the one
// BuildPruned makes of the same ids.
func TestConcurrentGrowthAndQueries(t *testing.T) {
	M := uint64(1 << 20)
	cfg := testConfig(t, M, 200, 0.9, 10)
	seedRng := rand.New(rand.NewSource(42))
	seedIDs := uniformSet(seedRng, M, 300)
	tree, err := BuildPruned(cfg, seedIDs)
	if err != nil {
		t.Fatal(err)
	}
	q := buildQueryFilter(t, tree, seedIDs)

	const writers = 8
	perWriter := make([][]uint64, writers)
	for w := 0; w < writers; w++ {
		// Writer w owns the namespace slice [w*M/writers, (w+1)*M/writers),
		// so the writers grow disjoint subtrees below shared top levels.
		base := uint64(w) * (M / writers)
		rng := rand.New(rand.NewSource(int64(100 + w)))
		for i := 0; i < 60; i++ {
			perWriter[w] = append(perWriter[w], base+uint64(rng.Intn(int(M/writers))))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := perWriter[w]
			for i := 0; i < len(ids); i += 10 {
				end := i + 10
				if end > len(ids) {
					end = len(ids)
				}
				if err := tree.InsertBatch(ids[i:end]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			for i := 0; i < 40; i++ {
				tree.Sample(q, rng, nil)
				if i%8 == 0 {
					tree.Reconstruct(q, PruneByAndBits, nil)
					// An exact draw: growth keeps dropping the table under it.
					p := tree.VersionFor(q).Exact()
					if x := p.Select(rng.Intn(p.Len())); !q.Contains(x) {
						t.Errorf("exact draw %d is not a positive", x)
					}
					// A tree written while it grows loads.
					if _, err := ReadTree(bytes.NewReader(treeBytes(t, tree))); err != nil {
						t.Errorf("a tree written while it grew: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Every inserted id is now a member of its leaf filters: reconstruct
	// a probe set per writer and check reachability.
	for w := 0; w < writers; w++ {
		probe := buildQueryFilter(t, tree, perWriter[w][:10])
		got, err := tree.Reconstruct(probe, PruneByAndBits, nil)
		if err != nil {
			t.Fatal(err)
		}
		found := map[uint64]bool{}
		for _, x := range got {
			found[x] = true
		}
		for _, id := range perWriter[w][:10] {
			if !found[id] {
				t.Fatalf("writer %d: id %d unreachable after concurrent growth", w, id)
			}
		}
	}
	if got, want := tree.GrowthEpoch(), uint64(writers*6); got != want {
		t.Fatalf("GrowthEpoch = %d after %d batches", got, want)
	}
	all := append([]uint64(nil), seedIDs...)
	for _, ids := range perWriter {
		all = append(all, ids...)
	}
	built, err := BuildPruned(cfg, all)
	if err != nil {
		t.Fatal(err)
	}
	if grown, want := nodeBytes(tree), nodeBytes(built); !bytes.Equal(grown, want) {
		t.Fatalf("the concurrently grown tree (%d bytes) is not BuildPruned's over the same ids (%d bytes)", len(grown), len(want))
	}
}

// treeBytes is the tree's encoding (WriteTo).
func treeBytes(t testing.TB, tree *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// leafFalsePositives returns, ascending, the ids that some leaf of tree
// answers for and that are not in inserted: ids a batch can add without
// changing any node.
func leafFalsePositives(tree *Tree, inserted map[uint64]bool) []uint64 {
	var out []uint64
	eachNode(tree.rootNode(), 1, func(n *node, _ uint64) {
		if left, right := n.children(); left != nil || right != nil {
			return
		}
		f := tree.bloomOf(n)
		for x := n.lo; x < n.hi; x++ {
			if !inserted[x] && f.Contains(x) {
				out = append(out, x)
			}
		}
	})
	return out
}

// checkGrown holds the tree's occupancy bitmap to what it promises: every
// id whose bit is set has a leaf, and that leaf holds it.
func checkGrown(t *testing.T, tree *Tree) {
	t.Helper()
	tree.grow.Lock()
	defer tree.grow.Unlock()
	for w, word := range tree.grown {
		for ; word != 0; word &= word - 1 {
			x := uint64(w)*64 + uint64(bits.TrailingZeros64(word))
			n := tree.rootNode()
			for n != nil {
				left, right := n.children()
				if left == nil && right == nil {
					break
				}
				if x < split(n.lo, n.hi) {
					n = left
				} else {
					n = right
				}
			}
			if n == nil || !tree.bloomOf(n).Contains(x) {
				t.Fatalf("id %d is marked grown, and its leaf does not hold it", x)
			}
		}
	}
}

// TestGrowthIsBuildPrunedExhaustive grows a pruned tree batch by batch for
// every namespace 2..256 at every depth its namespace allows, and after
// every batch holds its bytes to BuildPruned's over every id so far. The
// batches mix fresh ids, duplicates within a batch, re-inserts of ids
// already grown and leaf false positives, on filters small enough (61 bits)
// that internal nodes answer for ids their leaves lack: every way an id can
// be covered or not at a leaf while its path says otherwise. The occupancy
// bitmap exists from the first batch after which the filters hold M/8 bytes;
// before the third batch the tree is written out and read back, which
// drops it, and the reloaded tree must go on growing BuildPruned's tree.
// After every batch each node that was there before it must have a new box
// if and only if its bits changed: the rule boxedFilter.stamp promises.
func TestGrowthIsBuildPrunedExhaustive(t *testing.T) {
	for M := uint64(2); M <= 256; M++ {
		for depth := 0; depth <= bits.Len64(M-1); depth++ {
			cfg := Config{Namespace: M, Bits: 61, K: 3, Seed: M, Depth: depth}
			tree, err := BuildPruned(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(M<<8) + int64(depth)))
			inserted := map[uint64]bool{}
			var all []uint64
			for b := 0; b < 4; b++ {
				if b == 2 {
					if tree, err = ReadTree(bytes.NewReader(treeBytes(t, tree))); err != nil {
						t.Fatal(err)
					}
					if tree.grown != nil {
						t.Fatal("a tree read back holds an occupancy bitmap")
					}
				}
				var batch []uint64
				for range 1 + rng.Intn(6) {
					x := rng.Uint64() % M
					batch = append(batch, x, x) // a fresh id, or a covered one, twice
				}
				for i, x := range all {
					if i%3 == b%3 {
						batch = append(batch, x)
					}
				}
				if fps := leafFalsePositives(tree, inserted); len(fps) > 0 {
					batch = append(batch, fps[rng.Intn(len(fps))])
				}
				rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
				before := map[*node]*boxedFilter{}
				eachNode(tree.rootNode(), 1, func(n *node, _ uint64) { before[n] = n.f.Load() })
				if err := tree.InsertBatch(batch); err != nil {
					t.Fatal(err)
				}
				eachNode(tree.rootNode(), 1, func(n *node, _ uint64) {
					was, ok := before[n]
					if !ok {
						return
					}
					if reboxed, changed := n.f.Load() != was, !n.filter().vector(cfg.Bits).Equal(was.f.vector(cfg.Bits)); reboxed != changed {
						t.Fatalf("M = %d, depth %d, batch %d %v: [%d, %d) got a new box: %v, its bits changed: %v",
							M, depth, b, batch, n.lo, n.hi, reboxed, changed)
					}
				})
				for _, x := range batch {
					inserted[x] = true
				}
				all = append(all, batch...)
				built, err := BuildPruned(cfg, all)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(nodeBytes(tree), nodeBytes(built)) {
					t.Fatalf("M = %d, depth %d, batch %d %v: the grown tree is not BuildPruned's over %v", M, depth, b, batch, all)
				}
				checkGrown(t, tree)
			}
		}
	}
}

// TestCoveredBatchPublishesNothing: a batch whose every id its leaf already
// holds — ids grown before, and leaf false positives — changes no node, so
// it boxes nothing and leaves the node count and leaf ids as they were. It
// is still a batch (GrowthEpoch advances by one). Once the occupancy bitmap
// holds its ids, a covered id costs one bit, and the batch allocates
// nothing.
func TestCoveredBatchPublishesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const M = 1 << 14
	cfg := Config{Namespace: M, Bits: 512, K: 3, Seed: 5, Depth: 6}
	ids := uniformSet(rng, M, 2000)
	tree, err := BuildPruned(cfg, ids)
	if err != nil {
		t.Fatal(err)
	}
	inserted := map[uint64]bool{}
	for _, x := range ids {
		inserted[x] = true
	}
	fps := leafFalsePositives(tree, inserted)
	if len(fps) < 4 {
		t.Fatalf("%d leaf false positives: the tree is too sparse to test them", len(fps))
	}
	batch := append([]uint64{ids[7], ids[900], ids[1999], ids[7]}, fps[:4]...)
	before := map[*node]*boxedFilter{}
	eachNode(tree.rootNode(), 1, func(n *node, _ uint64) { before[n] = n.f.Load() })
	nodes, leafIDs, epoch := tree.Nodes(), tree.LeafIDs(), tree.GrowthEpoch()
	if err := tree.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	eachNode(tree.rootNode(), 1, func(n *node, _ uint64) {
		if box, ok := before[n]; !ok || n.f.Load() != box {
			t.Fatalf("a covered batch republished [%d, %d)", n.lo, n.hi)
		}
	})
	if tree.Nodes() != nodes || tree.LeafIDs() != leafIDs || tree.GrowthEpoch() != epoch+1 {
		t.Fatalf("a covered batch moved nodes %d → %d, leaf ids %d → %d, epoch %d → %d",
			nodes, tree.Nodes(), leafIDs, tree.LeafIDs(), epoch, tree.GrowthEpoch())
	}
	if allocs := testing.AllocsPerRun(100, func() { tree.InsertBatch(batch) }); allocs > 3 {
		t.Fatalf("a covered batch of %d ids allocates %.1f times, want at most 3", len(batch), allocs)
	}
}

// TestOccupancyBitmapIsLazy: a pruned tree holds no occupancy bitmap while
// its filters hold fewer than the bitmap's M/8 bytes between them, and
// MemoryBytes is what its filters hold alone; the batch after which they
// hold M/8 allocates it, M/8 bytes more, and records its ids. A sparse
// namespace (2⁴⁰ ids, a few hundred nodes) never gets one.
func TestOccupancyBitmapIsLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const M = 1 << 14
	cfg := Config{Namespace: M, Bits: 512, K: 3, Seed: 9, Depth: 6}
	tree, err := BuildPruned(cfg, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if tree.grown != nil || tree.MemoryBytes() != heldBytes(tree) {
		t.Fatalf("%d nodes of %d bits in M = %d: MemoryBytes %d, want the filters' %d",
			tree.Nodes(), cfg.Bits, M, tree.MemoryBytes(), heldBytes(tree))
	}
	batch := uniformSet(rng, M, 500)
	if err := tree.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if heldBytes(tree) < M/8 {
		t.Fatalf("%d nodes of %d bits hold %d bytes, fewer than M/8 = %d: the batch is too small", tree.Nodes(), cfg.Bits, heldBytes(tree), M/8)
	}
	if want := heldBytes(tree) + M/8; tree.grown == nil || tree.MemoryBytes() != want {
		t.Fatalf("%d nodes of %d bits in M = %d: MemoryBytes %d, want %d with the bitmap",
			tree.Nodes(), cfg.Bits, M, tree.MemoryBytes(), want)
	}
	marked := func(x uint64) bool { return tree.grown[x/64]&(1<<(x%64)) != 0 }
	for _, x := range batch {
		if !marked(x) {
			t.Fatalf("id %d of the batch that allocated the bitmap is not in it", x)
		}
	}
	for _, x := range []uint64{1, 2} {
		if marked(x) && !slices.Contains(batch, x) {
			t.Fatalf("id %d, built before the bitmap existed, is in it", x)
		}
	}
	checkGrown(t, tree)

	const sparse = 1 << 40
	cfg = Config{Namespace: sparse, Bits: 1 << 12, K: 3, Seed: 9, Depth: 12}
	tree, err = BuildPruned(cfg, uniformSet(rng, sparse, 20))
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.InsertBatch(uniformSet(rng, sparse, 20)); err != nil {
		t.Fatal(err)
	}
	if tree.grown != nil || tree.MemoryBytes() != heldBytes(tree) {
		t.Fatalf("M = 2⁴⁰, %d nodes of %d bits: MemoryBytes %d, want the filters' %d",
			tree.Nodes(), cfg.Bits, tree.MemoryBytes(), heldBytes(tree))
	}
}

// TestConcurrentCoveredBatches runs writers whose batches mix ids the
// occupancy bitmap holds with fresh ones, beside a reader, on a dense tree
// that has the bitmap from its build. Under -race it is the test that the
// bitmap is touched under the growth lock only; afterwards the tree must be
// BuildPruned's over every id and every marked id held by its leaf.
func TestConcurrentCoveredBatches(t *testing.T) {
	const M, writers = 1 << 14, 4
	cfg := Config{Namespace: M, Bits: 512, K: 3, Seed: 13, Depth: 6}
	rng := rand.New(rand.NewSource(13))
	seed := uniformSet(rng, M, 1000)
	tree, err := BuildPruned(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if tree.grown == nil {
		t.Fatal("the seeded tree has no occupancy bitmap")
	}
	perWriter := make([][]uint64, writers)
	for w := range perWriter {
		for range 200 {
			if rng.Intn(2) == 0 {
				perWriter[w] = append(perWriter[w], seed[rng.Intn(len(seed))])
			} else {
				perWriter[w] = append(perWriter[w], rng.Uint64()%M)
			}
		}
	}
	q := buildQueryFilter(t, tree, seed[:50])
	var wg sync.WaitGroup
	for w := range perWriter {
		wg.Add(1)
		go func(ids []uint64) {
			defer wg.Done()
			for i := 0; i < len(ids); i += 8 {
				if err := tree.InsertBatch(ids[i : i+8]); err != nil {
					t.Error(err)
					return
				}
			}
		}(perWriter[w])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(14))
		for range 200 {
			tree.Sample(q, rng, nil)
			tree.MemoryBytes()
		}
	}()
	wg.Wait()
	built, err := BuildPruned(cfg, slices.Concat(append(perWriter, seed)...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nodeBytes(tree), nodeBytes(built)) {
		t.Fatal("the concurrently grown tree is not BuildPruned's over the same ids")
	}
	if got, want := tree.GrowthEpoch(), uint64(writers*200/8); got != want {
		t.Fatalf("GrowthEpoch = %d after %d batches", got, want)
	}
	checkGrown(t, tree)
}

// TestSortIDsIsSlicesSort holds sortIDs to slices.Sort on both sides of
// radixFrom, for limits one digit apart and the widest, with duplicates.
func TestSortIDsIsSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, limit := range []uint64{2, 256, 257, 1 << 16, 1<<16 + 1, 1<<40 + 1, math.MaxUint64} {
		for _, n := range []int{0, 1, 8, radixFrom - 1, radixFrom, 5000} {
			ids := make([]uint64, n)
			for i := range ids {
				if i > 0 && rng.Intn(4) == 0 {
					ids[i] = ids[rng.Intn(i)]
				} else {
					ids[i] = rng.Uint64() % limit
				}
			}
			checkSortIDs(t, ids, limit)
		}
	}
}

func checkSortIDs(t *testing.T, ids []uint64, limit uint64) {
	t.Helper()
	want := slices.Clone(ids)
	slices.Sort(want)
	if got := sortIDs(slices.Clone(ids), limit); !slices.Equal(got, want) {
		t.Fatalf("limit %d, %d ids: sortIDs differs from slices.Sort", limit, len(ids))
	}
}

// FuzzSortIDs reads a limit and ids below it from the input (eight bytes
// each, the ids taken modulo the limit) and holds sortIDs to slices.Sort,
// repeated so that a short input still reaches the radix passes.
func FuzzSortIDs(f *testing.F) {
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8}, uint16(300))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 1, 0, 9, 9, 9, 9, 9, 9, 9, 9, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, repeat uint16) {
		if len(data) < 16 {
			return
		}
		limit := max(binary.LittleEndian.Uint64(data), 2)
		var ids []uint64
		for range 1 + int(repeat)%512 {
			for i := 8; i+8 <= len(data); i += 8 {
				ids = append(ids, (binary.LittleEndian.Uint64(data[i:])+uint64(len(ids)))%limit)
			}
		}
		checkSortIDs(t, ids, limit)
	})
}

// TestInsertBatchPublishesEachNodeOncePerBatch: a batch is one walk from
// the root, so each node it changes is boxed once, after its children,
// however many ids the batch holds and however far it forks. Here a batch
// of 20 000 uniform ids, past GrowRun, gives every node of a full-shaped
// pruned tree new bits at GOMAXPROCS 1 and 2, and the stamps drawn must
// number at most the nodes.
func TestInsertBatchPublishesEachNodeOncePerBatch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const M, depth, size = 1 << 16, 8, 20_000
	cfg := Config{Namespace: M, Bits: 1 << 12, K: 3, Seed: 7, Depth: depth}
	leaf := uint64(M >> depth)
	var seed, batch []uint64
	for lo := uint64(0); lo < M; lo += leaf {
		seed = append(seed, lo)
	}
	rng := rand.New(rand.NewSource(7))
	for _, x := range uniformSet(rng, M, 2*size) {
		if x%leaf != 0 && len(batch) < size {
			batch = append(batch, x)
		}
	}
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		tree, err := BuildPruned(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		before := map[*node]*boxedFilter{}
		eachNode(tree.rootNode(), 1, func(n *node, _ uint64) { before[n] = n.f.Load() })
		stamps := filterStamps.Load()
		if err := tree.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		drawn := filterStamps.Load() - stamps
		eachNode(tree.rootNode(), 1, func(n *node, _ uint64) {
			if n.f.Load() == before[n] {
				t.Fatalf("GOMAXPROCS %d: the batch left the filter of [%d, %d) as it was", procs, n.lo, n.hi)
			}
		})
		if nodes := tree.Nodes(); len(before) != int(nodes) || drawn > nodes {
			t.Fatalf("GOMAXPROCS %d: a batch of %d ids drew %d stamps on a tree of %d nodes (%d before)", procs, len(batch), drawn, nodes, len(before))
		}
	}
}

// servedShapes are the served benchmark's two ingest shapes: batch, 16
// keys of 10 000 uniform ids in M = 10⁶ (m = 273 404, depth 7), and point,
// 2 000 keys of 1 000 in M = 10⁵ (m = 27 341 in 428 words, depth 8).
// Filters are planned for accuracy 0.9 (k = 3, the fast family).
var servedShapes = []struct {
	name         string
	M            uint64
	keys, perKey int
	bits         uint64
	depth        int
}{
	{"batch", 1_000_000, 16, 10_000, 273_404, 7},
	{"point", 100_000, 2_000, 1_000, 27_341, 8},
}

// servedConfig plans the tree of servedShapes[i] and checks the plan.
func servedConfig(tb testing.TB, i int) Config {
	tb.Helper()
	shape := servedShapes[i]
	plan, err := PlanTree(0.9, uint64(shape.perKey), shape.M, 3, 0)
	if err != nil {
		tb.Fatal(err)
	}
	if plan.Bits != shape.bits || plan.Depth != shape.depth {
		tb.Fatalf("%s: planned m = %d and depth %d, want %d and %d", shape.name, plan.Bits, plan.Depth, shape.bits, shape.depth)
	}
	return Config{Namespace: shape.M, Bits: plan.Bits, K: plan.K, HashKind: hashfam.KindFast, Seed: 1, Depth: plan.Depth}
}

// treeDigest is what TestForkedGrowthIsBuildPruned compares trees by: the
// digest of nodeBytes, the node count and the leaf ids.
type treeDigest struct {
	sum            [sha256.Size]byte
	nodes, leafIDs uint64
}

func digestOf(tree *Tree) treeDigest {
	h := sha256.New()
	writeNodeBytes(h, tree)
	d := treeDigest{nodes: tree.Nodes(), leafIDs: tree.LeafIDs()}
	h.Sum(d.sum[:0])
	return d
}

// TestForkedGrowthIsBuildPruned grows a fresh pruned tree over both served
// shapes in batches of 20 000 ids — past GrowRun, so each batch forks its top
// levels — at GOMAXPROCS 1, 2 and 4. After every batch the tree must be
// BuildPruned's over every id so far, built at GOMAXPROCS 1: the same node
// bytes, node count and leaf ids. Each batch after the first re-sends 4 000
// earlier ids beside 16 000 fresh ones. A last batch of GrowRun ids the tree
// already covers must leave every node's stamp as it was.
func TestForkedGrowthIsBuildPruned(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const batches, fresh, again = 3, 16_000, 4_000
	for i, shape := range servedShapes {
		cfg := servedConfig(t, i)
		rng := rand.New(rand.NewSource(int64(i)))
		var grown [][]uint64
		var all []uint64
		for b := 0; b < batches; b++ {
			batch := uniformSet(rng, shape.M, fresh)
			if b > 0 {
				for range again {
					batch = append(batch, all[rng.Intn(len(all))])
				}
			}
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			grown = append(grown, batch)
			all = append(all, batch...)
		}
		runtime.GOMAXPROCS(1)
		var want []treeDigest
		for b := range grown {
			built, err := BuildPruned(cfg, slices.Concat(grown[:b+1]...))
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, digestOf(built))
		}
		covered := all[:GrowRun]
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			tree, err := BuildPruned(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			for b, batch := range grown {
				if err := tree.InsertBatch(batch); err != nil {
					t.Fatal(err)
				}
				if got := digestOf(tree); got != want[b] {
					t.Fatalf("%s, GOMAXPROCS %d, batch %d: %d nodes and %d leaf ids, BuildPruned %d and %d (node bytes equal: %v)",
						shape.name, procs, b, got.nodes, got.leafIDs, want[b].nodes, want[b].leafIDs, got.sum == want[b].sum)
				}
			}
			stamps := map[*node]uint64{}
			eachNode(tree.rootNode(), 1, func(n *node, _ uint64) { stamps[n] = n.stamp() })
			if err := tree.InsertBatch(covered); err != nil {
				t.Fatal(err)
			}
			eachNode(tree.rootNode(), 1, func(n *node, _ uint64) {
				if was, ok := stamps[n]; !ok || n.stamp() != was {
					t.Fatalf("%s, GOMAXPROCS %d: a covered batch of %d ids republished [%d, %d)", shape.name, procs, len(covered), n.lo, n.hi)
				}
			})
		}
	}
}

// BenchmarkInsertBatch grows a fresh pruned tree over each of servedShapes
// in the batches of at most 50 000 ids the served benchmark's set-up sends.
// write adds batches of 1–8 uniform ids, a mixed stream's adds, to the
// grown point tree: an op is one batch.
func BenchmarkInsertBatch(b *testing.B) {
	for i, shape := range servedShapes {
		cfg := servedConfig(b, i)
		rng := rand.New(rand.NewSource(1))
		var batches [][]uint64
		var batch []uint64
		for k := 0; k < shape.keys; k++ {
			set := uniformSet(rng, shape.M, shape.perKey)
			if len(batch)+len(set) > 50_000 {
				batches = append(batches, batch)
				batch = nil
			}
			batch = append(batch, set...)
		}
		batches = append(batches, batch)
		grow := func(b *testing.B) *Tree {
			tree, err := BuildPruned(cfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			for _, batch := range batches {
				if err := tree.InsertBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			return tree
		}
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				grow(b)
			}
		})
		if shape.name != "point" {
			continue
		}
		b.Run("write", func(b *testing.B) {
			tree := grow(b)
			adds := make([][]uint64, 4096)
			for i := range adds {
				adds[i] = uniformSet(rng, shape.M, 1+rng.Intn(8))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tree.InsertBatch(adds[i%len(adds)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestInsertBatchListsAreOneBatch: ids given to InsertBatch as many lists
// grow the tree the same ids grow given as one list, node for node, with
// ids repeated across lists and within them, empty lists among them, and
// the occupancy bitmap both absent and present (a second round of lists
// over the grown tree, half of them ids it holds); each call is one batch
// of the epoch. An out-of-range id in a later list refuses the whole call
// before anything grows.
func TestInsertBatchListsAreOneBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const M = 1 << 16
	cfg := testConfig(t, M, 200, 0.9, 8)
	one, err := BuildPruned(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	many, err := BuildPruned(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var grown []uint64
	for round := 0; round < 3; round++ {
		ids := append(uniformSet(rng, M, 5_000), grown[:len(grown)/2]...)
		ids = append(ids, ids[:300]...)
		var lists [][]uint64
		for rest := ids; len(rest) > 0; {
			n := min(rng.Intn(700), len(rest))
			lists, rest = append(lists, rest[:n], nil), rest[n:]
		}
		lists = append(lists, ids[100:400]) // every one of them twice
		if err := one.InsertBatch(ids); err != nil {
			t.Fatal(err)
		}
		if err := many.InsertBatch(lists...); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(nodeBytes(one), nodeBytes(many)) || one.Nodes() != many.Nodes() || one.LeafIDs() != many.LeafIDs() {
			t.Fatalf("round %d: %d lists grew a different tree from one list of the same ids", round, len(lists))
		}
		if many.GrowthEpoch() != uint64(round+1) {
			t.Fatalf("round %d: epoch %d, want one a call", round, many.GrowthEpoch())
		}
		grown = append(grown, ids...)
	}
	if many.grown == nil {
		t.Fatal("the tree never got its occupancy bitmap: the test does not cover it")
	}
	checkGrown(t, many)

	fresh, err := BuildPruned(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tree := range []*Tree{fresh, many} {
		before, nodes, epoch := nodeBytes(tree), tree.Nodes(), tree.GrowthEpoch()
		if err := tree.InsertBatch([]uint64{1, 2}, uniformSet(rng, M, 5_000), []uint64{3, M, 4}); err == nil {
			t.Fatal("an out-of-range id in a later list was accepted")
		}
		if !bytes.Equal(nodeBytes(tree), before) || tree.Nodes() != nodes || tree.GrowthEpoch() != epoch {
			t.Fatalf("a refused call grew the tree: nodes %d → %d, epoch %d → %d", nodes, tree.Nodes(), epoch, tree.GrowthEpoch())
		}
	}
}
