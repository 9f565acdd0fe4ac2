package core

import (
	"math/rand"
	"sync"
	"testing"
)

// TestMemoComputesEachPairOnceUnderContention has 16 goroutines draw
// through one Memo on a tree of depth 3, all released at once so that they
// meet at the root and at every node below it before its estimates exist.
// Whoever gets there first computes the pair and the others wait for it:
// summed over the workers the estimates computed are two per internal node,
// all seven of them, exactly — and again after a Reset, from the same slab.
// Run it under -race: the table, the slab and every entry are shared.
func TestMemoComputesEachPairOnceUnderContention(t *testing.T) {
	const M = 1 << 12
	tree, err := BuildTree(testConfig(t, M, 300, 0.9, 3))
	if err != nil {
		t.Fatal(err)
	}
	q := buildQueryFilter(t, tree, uniformSet(rand.New(rand.NewSource(1)), M, 300))

	const workers = 16
	var memo Memo
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		start := make(chan struct{})
		ops := make([]Ops, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100*round + w)))
				var scratch []uint64
				est := Estimates{Memo: &memo}
				<-start
				for i := 0; i < 200; i++ {
					var err error
					if _, scratch, err = tree.SampleMemo(q, rng, &ops[w], scratch, &est); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()

		var sum Ops
		for _, o := range ops {
			sum.Add(o)
		}
		if sum.Intersections != 2*7 || len(memo.ests) != 7 || memo.used != 7 {
			t.Fatalf("round %d: %d estimates computed for %d remembered nodes (%d entries handed out), want 14 for 7",
				round, sum.Intersections, len(memo.ests), memo.used)
		}
		if sum.NodesVisited != workers*200*4 || sum.LeavesScanned != workers*200 {
			t.Fatalf("round %d: %v", round, &sum)
		}
		memo.Reset()
		if len(memo.ests) != 0 || memo.used != 0 || len(memo.slabs) != 1 {
			t.Fatalf("round %d: Reset left %d nodes, %d entries, %d slabs", round, len(memo.ests), memo.used, len(memo.slabs))
		}
	}
}
