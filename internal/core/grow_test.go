package core

import (
	"math/rand"
	"sync"
	"testing"
)

// TestInsertBatchMatchesSequentialInsert pins that the batched, striped
// growth path stores exactly what repeated single Inserts store.
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
// regression test for the lock-free growth path; afterwards every
// inserted id must be reachable and per-subtree epochs must have
// advanced independently.
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
		// Writer w owns the namespace slice [w*M/writers, (w+1)*M/writers):
		// disjoint subtrees, so their stripes should advance in parallel.
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
	epochs := tree.SubtreeEpochs()
	if len(epochs) == 0 {
		t.Fatal("pruned tree reports no stripes")
	}
	advanced := 0
	for _, e := range epochs {
		if e > 0 {
			advanced++
		}
	}
	if advanced < 2 {
		t.Fatalf("only %d subtree(s) advanced; growth is not striped (epochs=%v)", advanced, epochs)
	}
	if tree.GrowthEpoch() == 0 {
		t.Fatal("GrowthEpoch did not advance")
	}
}
