package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/bloom"
	"repro/internal/hashfam"
	"repro/internal/membership"
)

// eachNode calls fn for every node of the tree with its heap position.
func eachNode(n *node, pos uint64, fn func(n *node, pos uint64)) {
	if n == nil {
		return
	}
	fn(n, pos)
	left, right := n.children()
	eachNode(left, 2*pos, fn)
	eachNode(right, 2*pos+1, fn)
}

// checkIndex holds every pair the index would serve right now — filed under
// the stamps its node's children carry — to a freshly computed pair, bit
// for bit, and returns how many there are.
func checkIndex(t *testing.T, tree *Tree, q *bloom.Filter, x *EstimateIndex) (valid int) {
	t.Helper()
	eachNode(tree.rootNode(), 1, func(n *node, pos uint64) {
		left, right := n.children()
		if left == nil && right == nil || !x.covers(pos) {
			return
		}
		var ops Ops
		l, r := tree.childEstimate(left, q, &ops), tree.childEstimate(right, q, &ops)
		gotL, gotR, computed := x.slots[pos-1].estimates(left.stamp()+right.stamp(), func() (float64, float64) { return l, r })
		if computed {
			return
		}
		if math.Float64bits(gotL) != math.Float64bits(l) || math.Float64bits(gotR) != math.Float64bits(r) {
			t.Errorf("node %d: remembered (%v, %v), computed (%v, %v)", pos, gotL, gotR, l, r)
		}
		valid++
	})
	return valid
}

// TestIndexLevels pins the slot size the share is counted in and the levels
// the rule gives on the two filter sizes of the benchmark.
func TestIndexLevels(t *testing.T) {
	if got := unsafe.Sizeof(indexSlot{}); got != indexSlotBytes {
		t.Fatalf("a slot takes %d bytes, indexSlotBytes says %d", got, indexSlotBytes)
	}
	for _, c := range []struct {
		bits   uint64
		depth  int
		levels int
	}{{273_404, 7, 7}, {273_404, 9, 7}, {27_341, 8, 4}, {27_341, 3, 3}, {64, 5, 0}} {
		if got := indexLevels((c.bits+63)/64*8, c.depth); got != c.levels {
			t.Errorf("m = %d, depth %d: %d levels, want %d", c.bits, c.depth, got, c.levels)
		}
	}
}

// TestIndexSlotServesOnlyWhatItWasAskedFor walks one slot through its life:
// empty, filed, asked for another state, overtaken by a later state, and
// asked for an earlier one too late.
func TestIndexSlotServesOnlyWhatItWasAskedFor(t *testing.T) {
	var s indexSlot
	ask := func(v uint64, l, r float64) (float64, float64, bool) {
		return s.estimates(v, func() (float64, float64) { return l, r })
	}
	for _, step := range []struct {
		version        uint64
		offerL, offerR float64
		wantL, wantR   float64
		computed       bool
	}{
		{7, 1.5, 2.5, 1.5, 2.5, true}, // empty: computed and filed
		{7, 0, 0, 1.5, 2.5, false},    // read back
		{9, 3, 4, 3, 4, true},         // the children changed: computed again
		{8, 5, 6, 5, 6, true},         // a caller that loaded older filters keeps its pair to itself
		{9, 0, 0, 3, 4, false},        // and the slot did not go back
	} {
		l, r, computed := ask(step.version, step.offerL, step.offerR)
		if l != step.wantL || r != step.wantR || computed != step.computed {
			t.Fatalf("state %d: got (%v, %v, computed %v), want (%v, %v, %v)", step.version, l, r, computed, step.wantL, step.wantR, step.computed)
		}
	}
}

// TestGrowthThatChangesNothingPublishesNothing: inserting ids every node on
// their paths already answers for leaves every published filter where it
// was — the same box, the same stamp, so nothing remembered about it goes
// stale — while the epoch still advances; one id the root does not answer
// for replaces exactly the filters on its root-to-leaf path.
func TestGrowthThatChangesNothingPublishesNothing(t *testing.T) {
	const M = 1 << 16
	cfg := testConfig(t, M, 300, 0.9, 6)
	ids := uniformSet(rand.New(rand.NewSource(3)), M, 800)
	tree, err := BuildPruned(cfg, ids)
	if err != nil {
		t.Fatal(err)
	}
	boxes := func() map[*node]*boxedFilter {
		m := make(map[*node]*boxedFilter)
		eachNode(tree.rootNode(), 1, func(n *node, _ uint64) { m[n] = n.f.Load() })
		return m
	}

	before, epoch := boxes(), tree.GrowthEpoch()
	if err := tree.InsertBatch(ids); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(ids[17]); err != nil {
		t.Fatal(err)
	}
	after := boxes()
	if len(after) != len(before) {
		t.Fatalf("covered ids grew the tree from %d to %d nodes", len(before), len(after))
	}
	for n, b := range before {
		if after[n] != b {
			t.Fatalf("covered ids republished the filter of [%d, %d)", n.lo, n.hi)
		}
	}
	if tree.GrowthEpoch() == epoch {
		t.Fatal("the growth epoch did not advance")
	}

	var fresh uint64
	for root := tree.bloomOf(tree.rootNode()); root.Contains(fresh); fresh++ {
	}
	if err := tree.Insert(fresh); err != nil {
		t.Fatal(err)
	}
	changed := 0
	for n, b := range boxes() {
		onPath := n.lo <= fresh && fresh < n.hi
		if old, existed := after[n]; existed && (old != b) != onPath {
			t.Fatalf("id %d: filter of [%d, %d) republished = %v", fresh, n.lo, n.hi, old != b)
		} else if !existed && !onPath {
			t.Fatalf("id %d created [%d, %d)", fresh, n.lo, n.hi)
		}
		if onPath {
			changed++
		}
	}
	if changed != cfg.Depth+1 {
		t.Fatalf("id %d touched %d nodes, its path has %d", fresh, changed, cfg.Depth+1)
	}
}

// TestIndexedDrawsMatchSampleScratch is the id-for-id guarantee of the
// per-version index, on every backend's query view and on a fused-probe and
// a block-scanned hash family: counted draws through the version's index (it
// stops short of the leaves, so the levels below are computed) return exactly
// what SampleScratch returns on an
// identically seeded rng — on a cold index, on a warm one, and on a warm one
// after tree growth has swapped some of the filters its pairs were computed
// from — with fewer estimates computed and every other count equal.
func TestIndexedDrawsMatchSampleScratch(t *testing.T) {
	const (
		M     = 1 << 16
		draws = 300
	)
	for _, backend := range []membership.Kind{membership.KindBloom, membership.KindCounting} {
		for _, kind := range []hashfam.Kind{hashfam.KindFast, hashfam.KindMurmur3} {
			t.Run(fmt.Sprintf("%s/%s", backend, kind), func(t *testing.T) {
				cfg := testConfig(t, M, 300, 0.9, 6)
				cfg.HashKind = kind
				data := rand.New(rand.NewSource(12))
				set := uniformSet(data, M, 300)
				tree, err := BuildPruned(cfg, append(uniformSet(data, M, 600), set...))
				if err != nil {
					t.Fatal(err)
				}
				var q *bloom.Filter
				if backend == membership.KindBloom {
					q = bloom.NewFromElements(tree.Family(), set)
				} else {
					dyn, err := membership.NewDynamicWith(backend, tree.Family(), 300, set)
					if err != nil {
						t.Fatal(err)
					}
					q = dyn.QueryView()
				}
				index := tree.VersionFor(q).Index()
				if l := index.Levels(); l < 1 || l >= cfg.Depth {
					t.Fatalf("the index covers %d of %d levels; the test wants levels above and below its edge", l, cfg.Depth)
				}
				if tree.VersionFor(q).Index() != index {
					t.Fatal("a second Index made a second index")
				}
				if other, err := BuildPruned(cfg, set); err != nil || other.VersionFor(q).Index() != nil {
					t.Fatalf("another tree was handed this tree's index (err %v): stamps compare within one tree only", err)
				}

				rng, ref := rand.New(rand.NewSource(31)), rand.New(rand.NewSource(31))
				var scratch, refScratch []uint64
				pass := func(step string) Ops {
					t.Helper()
					var est, ops, refOps Ops
					for i := 0; i < draws; i++ {
						var got, want uint64
						var err, refErr error
						got, scratch, err = tree.SampleVersion(q, rng, &ops, scratch, tree.VersionFor(q), &est)
						want, refScratch, refErr = tree.SampleScratch(q, ref, &refOps, refScratch)
						if got != want || err != refErr {
							t.Fatalf("%s, draw %d: indexed (%d, %v), SampleScratch (%d, %v)", step, i, got, err, want, refErr)
						}
					}
					if est != ops || ops.Intersections+ops.Remembered != refOps.Intersections {
						t.Fatalf("%s: tallied %v, counted %v, independent draws %v", step, &est, &ops, &refOps)
					}
					ops.Intersections, ops.Remembered, refOps.Intersections = 0, 0, 0
					if ops != refOps {
						t.Fatalf("%s: indexed draws counted %v, independent draws %v", step, &ops, &refOps)
					}
					if checkIndex(t, tree, q, index) == 0 {
						t.Fatalf("%s: no pair is remembered", step)
					}
					return est
				}

				cold := pass("cold index")
				warm := pass("warm index")
				if warm.Intersections >= cold.Intersections {
					t.Fatalf("the warm pass computed %d estimates, the cold one %d", warm.Intersections, cold.Intersections)
				}
				if err := tree.InsertBatch(uniformSet(data, M, 40)); err != nil {
					t.Fatal(err)
				}
				grown := pass("warm index, grown tree")
				if grown.Intersections <= warm.Intersections {
					t.Fatalf("growth swapped filters under the index and the next pass computed %d estimates, the one before %d",
						grown.Intersections, warm.Intersections)
				}
			})
		}
	}
}

// TestIndexDroppedWithTheBitsItDescribes is the stale-estimate regression on
// a filter the caller mutates in place, as a library user may: once the
// index is warm on a set that lives in the left half of the namespace, ids
// added to the right half must become reachable — the root's remembered
// pair says that side is empty — because Add dropped the index with the
// bits it described.
func TestIndexDroppedWithTheBitsItDescribes(t *testing.T) {
	const M = 1 << 12
	// 8 KB filters: an eighth holds the 31 pairs of all five levels.
	tree, err := BuildTree(Config{Namespace: M, Bits: 1 << 16, K: 3, Seed: 7, Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	if l := tree.VersionFor(tree.NewQueryFilter()).Index().Levels(); l != 5 {
		t.Fatalf("the index covers %d levels of 5", l)
	}
	q := buildQueryFilter(t, tree, uniformSet(rand.New(rand.NewSource(1)), M/2, 150))
	rng := rand.New(rand.NewSource(2))
	draw := func(n int) (right int, computed uint64) {
		t.Helper()
		// Counted, so that the draws stay on the descent through the index.
		var est, ops Ops
		var scratch []uint64
		for i := 0; i < n; i++ {
			var x uint64
			var err error
			if x, scratch, err = tree.SampleVersion(q, rng, &ops, scratch, tree.VersionFor(q), &est); err != nil {
				t.Fatal(err)
			}
			if x >= M/2 {
				right++
			}
		}
		return right, est.Intersections
	}
	if right, _ := draw(500); right != 0 {
		t.Fatalf("%d draws from a set in the left half landed in the right", right)
	}
	if _, computed := draw(500); computed != 0 {
		t.Fatalf("a tree the index covers whole computed %d estimates on its second pass", computed)
	}
	old := tree.VersionFor(q).Index()
	for _, x := range uniformSet(rand.New(rand.NewSource(3)), M/2, 150) {
		q.Add(M/2 + x)
	}
	if q.Derived() != nil || tree.VersionFor(q).Index() == old {
		t.Fatal("Add left the index of the old bits in place")
	}
	right, computed := draw(500)
	if right < 150 || computed == 0 {
		t.Fatalf("after doubling the set into the right half, %d of 500 draws landed there and %d estimates were computed", right, computed)
	}
}

// TestIndexUnderConcurrentGrowth has eight samplers draw through the indexes
// of four pinned views while a writer grows the pruned tree under them: the
// race detector sees every slot, pair and stamp shared; every id returned
// answers positively in its view; and once the writer has stopped, every
// pair an index still serves is the pair a fresh computation gives.
func TestIndexUnderConcurrentGrowth(t *testing.T) {
	const M = 1 << 16
	cfg := testConfig(t, M, 300, 0.9, 6)
	cfg.HashKind = hashfam.KindFast
	data := rand.New(rand.NewSource(9))
	tree, err := BuildPruned(cfg, uniformSet(data, M, 500))
	if err != nil {
		t.Fatal(err)
	}
	views := make([]*bloom.Filter, 4)
	for i := range views {
		views[i] = bloom.NewFromElements(tree.Family(), uniformSet(data, M, 300))
	}
	batches := make([][]uint64, 150)
	for i := range batches {
		batches[i] = uniformSet(data, M, 10)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := views[s%len(views)]
			rng := rand.New(rand.NewSource(int64(s)))
			var scratch []uint64
			var ops Ops // counted: the draws stay on the descent through the index
			for request := 0; ; request++ {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < 16; i++ {
					var x uint64
					var err error
					x, scratch, err = tree.SampleVersion(q, rng, &ops, scratch, tree.VersionFor(q), nil)
					if err == nil && !q.Contains(x) {
						t.Errorf("sampler %d drew %d, which its view does not hold", s, x)
						return
					}
					if err != nil && err != ErrNoSample {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for _, ids := range batches {
		if err := tree.InsertBatch(ids); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()

	for i, q := range views {
		index := tree.VersionFor(q).Index()
		checkIndex(t, tree, q, index)
		// A pass on the settled tree brings every pair it touches up to
		// date; those are then all served, and all exact.
		rng := rand.New(rand.NewSource(int64(100 + i)))
		var scratch []uint64
		var ops Ops
		for d := 0; d < 200; d++ {
			_, scratch, _ = tree.SampleVersion(q, rng, &ops, scratch, tree.VersionFor(q), nil)
		}
		if valid := checkIndex(t, tree, q, index); valid < index.Levels() {
			t.Errorf("view %d: %d pairs served after 200 draws through %d levels", i, valid, index.Levels())
		}
	}
}
