package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/hashfam"
)

// TestInsertBatchMatchesSequentialInsert pins that one batch, grown in runs
// from the root, stores exactly what repeated single Inserts store.
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
// reconstruct and run the shared uniform sampler. Under -race this is the
// regression test for growth beside lock-free readers; afterwards every
// inserted id must be reachable, the epoch must count every batch, and the
// tree must be byte for byte the one BuildPruned makes of the same ids.
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
	var grown, want bytes.Buffer
	if _, err := tree.WriteTo(&grown); err != nil {
		t.Fatal(err)
	}
	if _, err := built.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(grown.Bytes(), want.Bytes()) {
		t.Fatalf("the concurrently grown tree (%d bytes) is not BuildPruned's over the same ids (%d bytes)", grown.Len(), want.Len())
	}
}

// TestInsertBatchPublishesEachNodeOncePerRun: a batch of at most growRun ids
// is one walk from the root, so each node it changes is boxed once, however
// widely the ids spread. Every node of the tree gains bits here, and the
// stamps drawn must number at most the nodes.
func TestInsertBatchPublishesEachNodeOncePerRun(t *testing.T) {
	const M, depth = 1 << 12, 4
	cfg := Config{Namespace: M, Bits: 1 << 12, K: 3, Seed: 7, Depth: depth}
	leaf := uint64(M >> depth)
	var seed, batch []uint64
	for lo := uint64(0); lo < M; lo += leaf {
		seed = append(seed, lo)
		for i := uint64(1); i <= 4; i++ {
			batch = append(batch, lo+i*leaf/8)
		}
	}
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
			t.Fatalf("the batch left the filter of [%d, %d) as it was", n.lo, n.hi)
		}
	})
	if nodes := tree.Nodes(); len(before) != int(nodes) || drawn > nodes {
		t.Fatalf("a batch of %d ids drew %d stamps on a tree of %d nodes (%d before)", len(batch), drawn, nodes, len(before))
	}
}

// BenchmarkInsertBatch grows a fresh pruned tree over each of the served
// benchmark's two ingest shapes, in the batches of at most 50 000 ids its
// set-up sends: batch, 16 keys of 10 000 uniform ids in M = 10⁶
// (m = 273 404, depth 7), and point, 2 000 keys of 1 000 in M = 10⁵
// (m = 27 341 in 428 words, depth 8). Filters are planned for accuracy 0.9
// (k = 3, the fast family).
func BenchmarkInsertBatch(b *testing.B) {
	for _, shape := range []struct {
		name         string
		M            uint64
		keys, perKey int
		bits         uint64
		depth        int
	}{
		{"batch", 1_000_000, 16, 10_000, 273_404, 7},
		{"point", 100_000, 2_000, 1_000, 27_341, 8},
	} {
		plan, err := PlanTree(0.9, uint64(shape.perKey), shape.M, 3, 0)
		if err != nil {
			b.Fatal(err)
		}
		if plan.Bits != shape.bits || plan.Depth != shape.depth {
			b.Fatalf("%s: planned m = %d and depth %d, want %d and %d", shape.name, plan.Bits, plan.Depth, shape.bits, shape.depth)
		}
		cfg := Config{Namespace: shape.M, Bits: plan.Bits, K: plan.K, HashKind: hashfam.KindFast, Seed: 1, Depth: plan.Depth}
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
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tree, err := BuildPruned(cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				for _, batch := range batches {
					if err := tree.InsertBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
