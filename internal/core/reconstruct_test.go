package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/bloom"
	"repro/internal/hashfam"
	"repro/internal/membership"
)

// reconstructByEstimate is Reconstruct under PruneByEstimate as it was
// before the threshold verdict: every examined child's intersection
// estimate computed in full and compared with the threshold. It is kept as
// the reference the verdict's prune decisions are held to; examined, when
// not nil, is told each child the walk asks about.
func (t *Tree) reconstructByEstimate(n *node, q *bloom.Filter, ops *Ops, examined func(child *node), out []uint64) []uint64 {
	ops.NodesVisited++
	left, right := n.children()
	if left == nil && right == nil {
		return t.positivesInLeaf(n, q, ops, out)
	}
	for _, child := range []*node{left, right} {
		if child == nil {
			continue
		}
		ops.Intersections++
		if examined != nil {
			examined(child)
		}
		if bloom.EstimateIntersectionOf(t.bloomOf(child), q) >= t.cfg.EmptyThreshold {
			out = t.reconstructByEstimate(child, q, ops, examined, out)
		}
	}
	return out
}

// TestReconstructVerdictPrunesLikeTheEstimate holds the tree walk to the
// reference on every backend's query view, on a family with the fused leaf
// scan and one without, at three thresholds, for a query of the design size
// (nearly every branch alive) and one of four ids (nearly every branch
// pruned, which the test insists on: a walk that pruned nothing would agree
// with anything): the same ids in the same order and the same counts.
func TestReconstructVerdictPrunesLikeTheEstimate(t *testing.T) {
	const M = 1 << 15
	for _, kind := range []hashfam.Kind{hashfam.KindFast, hashfam.KindMurmur3} {
		for _, thr := range []float64{0.5, 1, 3} {
			cfg := testConfig(t, M, 400, 0.9, 7)
			cfg.HashKind, cfg.EmptyThreshold = kind, thr
			tree, err := BuildTree(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{400, 4} {
				set := uniformSet(rand.New(rand.NewSource(int64(size))), M, size)
				for _, backend := range []membership.Kind{membership.KindBloom, membership.KindCounting} {
					q := buildQueryFilter(t, tree, set)
					if backend != membership.KindBloom {
						dyn, err := membership.NewDynamicWith(backend, tree.Family(), 400, set)
						if err != nil {
							t.Fatal(err)
						}
						q = dyn.QueryView()
					}
					name := fmt.Sprintf("%s thr=%v %d ids %s", kind, thr, size, backend)
					var wantOps, gotOps Ops
					want := tree.reconstructByEstimate(tree.rootNode(), q, &wantOps, nil, nil)
					got, err := tree.Reconstruct(q, PruneByEstimate, &gotOps)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) || gotOps != wantOps {
						t.Fatalf("%s: %d ids counting %v, the reference returns %d counting %v", name, len(got), &gotOps, len(want), &wantOps)
					}
					if size == 400 && len(got) < size/2 {
						t.Fatalf("%s: %d ids reconstructed", name, len(got))
					}
					if size == 4 && gotOps.Intersections > tree.Nodes()/2 {
						t.Fatalf("%s: %d intersections on %d nodes; a sparse query must prune", name, gotOps.Intersections, tree.Nodes())
					}
				}
			}
		}
	}
}

// TestReconstructBatchShapeCosts gates one reconstruction on the batch
// shape: the counts the benchmark's ledger reads, the answer sized once
// instead of regrown nineteen times, and what the 254 verdicts read. A
// verdict stops at the t∧ need at which the estimate reaches the
// threshold, and need is, to within a bit or two, the overlap t1·t2/m two
// unrelated filters of those fills would have by chance — the estimator
// measures the excess over it. A tenth-full query against a node that
// holds its ids shares about 1.56 times the chance level, so a live
// verdict reads about 64 % of what it counts over, at every level of the
// tree (measured 0.641 of the two vectors' words when every node was
// dense; the issue expected 0.30, which no exact test on t∧ can reach).
// The 126 internal nodes below the root are dense and count the
// AND-popcount, by the rule bitset.AndCountAtLeast is pinned to by its own
// test — the count is looked at every 8 words; the 128 leaves, 1.3 % full,
// hold their positions (nodeFilter) and count those set in the query,
// looking every 64 positions. need is computed by its definition, the
// smallest t∧ whose estimate reaches the threshold.
func TestReconstructBatchShapeCosts(t *testing.T) {
	tree, queries := batchShape(t)
	q := queries[3]
	const words, stride, posStride = 4272, 8, 64
	var ops Ops
	read, tested, held, verdicts, sparse := 0, 0, 0, 0, 0
	want := tree.reconstructByEstimate(tree.rootNode(), q, &ops, func(child *node) {
		f := tree.bloomOf(child)
		t1, t2 := f.SetBits(), q.SetBits()
		need := uint64(sort.Search(int(min(t1, t2))+1, func(tand int) bool {
			return bloom.EstimateIntersection(f.M(), f.K(), t1, t2, uint64(tand)) >= tree.cfg.EmptyThreshold
		}))
		a, b := f.Bits().Raw(), q.Bits().Raw()
		if len(a) != words || t1+t2 > f.M() {
			t.Fatalf("a node of %d words with %d + %d bits set of %d; the gate is written for verdicts that stop early", len(a), t1, t2, f.M())
		}
		verdicts++
		if pos := child.filter().pos; child.filter().dense == nil {
			i, c := 0, uint64(0)
			for ; c < need && i < len(pos); i += posStride {
				for _, p := range pos[i:min(i+posStride, len(pos))] {
					c += b[p/64] >> (p % 64) & 1
				}
			}
			tested += min(i, len(pos))
			held += len(pos)
			sparse++
			return
		}
		i, c := 0, uint64(0)
		for ; c < need && i < words; i += stride {
			for j := i; j < i+stride; j++ {
				c += uint64(bits.OnesCount64(a[j] & b[j]))
			}
		}
		read += i
	}, nil)
	if wantOps := (Ops{Intersections: 254, Memberships: 1_000_000, NodesVisited: 255, LeavesScanned: 128}); ops != wantOps || verdicts != 254 || sparse != 128 {
		t.Fatalf("the reference walk counted %v over %d verdicts, %d of them on sparse nodes; want %v, 254 and the 128 leaves", &ops, verdicts, sparse, &wantOps)
	}
	if share := float64(read) / (126 * words); share > 0.70 {
		t.Fatalf("126 dense verdicts read %d words, %.3f of 126 × %d; measured 0.644", read, share, words)
	} else {
		t.Logf("126 dense verdicts read %.3f of 126 × %d words", share, words)
	}
	if share := float64(tested) / float64(held); share > 0.70 {
		t.Fatalf("128 sparse verdicts tested %d of their %d positions, %.3f; measured 0.647", tested, held, share)
	} else {
		t.Logf("128 sparse verdicts tested %.3f of their %d positions (%.3f of 128 × %d words)", share, held, float64(tested)/(128*words), words)
	}

	var got []uint64
	var gotOps Ops
	allocs := testing.AllocsPerRun(5, func() {
		gotOps = Ops{}
		var err error
		if got, err = tree.Reconstruct(q, PruneByEstimate, &gotOps); err != nil {
			t.Fatal(err)
		}
	})
	if !slices.Equal(got, want) || gotOps != ops {
		t.Fatalf("%d ids counting %v, the reference returns %d counting %v", len(got), &gotOps, len(want), &ops)
	}
	if allocs > 2 {
		t.Fatalf("a reconstruction of %d ids allocates %v times, want its answer alone", len(got), allocs)
	}
}

// batchShape builds what the benchmark's batch_bin and reconstruct_http
// workloads serve: M = 10⁶, 16 sets of 10 000 uniform ids, filters planned
// for accuracy 0.9 (m = 273 404, 4 272 words; k = 3, the fast family), and
// the tree pruned to the ids in use — depth 7, 255 nodes, 7 812-id leaves.
// It returns the tree and the 16 query filters.
func batchShape(tb testing.TB) (*Tree, []*bloom.Filter) {
	tb.Helper()
	tree, queries := plannedShape(tb, 1_000_000, 16, 10_000)
	if tree.Depth() != 7 || tree.Config().Bits != 273_404 {
		tb.Fatalf("planned depth %d and m = %d; the gates on this shape are written for 7 and 273 404", tree.Depth(), tree.Config().Bits)
	}
	return tree, queries
}

// plannedShape builds a served shape: keys sets of perKey uniform ids in M,
// filters planned for accuracy 0.9 (k = 3, the fast family) and the tree
// pruned to the ids in use. It returns the tree and the query filters.
func plannedShape(tb testing.TB, M uint64, keys, perKey int) (*Tree, []*bloom.Filter) {
	tb.Helper()
	plan, err := PlanTree(0.9, uint64(perKey), M, 3, 0)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := Config{Namespace: M, Bits: plan.Bits, K: plan.K, HashKind: hashfam.KindFast, Seed: 1, Depth: plan.Depth}
	rng := rand.New(rand.NewSource(1))
	sets := make([][]uint64, keys)
	var occupied []uint64
	for k := range sets {
		sets[k] = uniformSet(rng, M, perKey)
		occupied = append(occupied, sets[k]...)
	}
	tree, err := BuildPruned(cfg, occupied)
	if err != nil {
		tb.Fatal(err)
	}
	queries := make([]*bloom.Filter, keys)
	for k, set := range sets {
		queries[k] = buildQueryFilter(tb, tree, set)
	}
	return tree, queries
}

// BenchmarkReconstructBatchShape times one reconstruction on the shape the
// benchmark's reconstruct_http workload serves, so the layer can be timed
// in pairs against another checkout: 254 threshold verdicts and a million
// leaf probes a call.
func BenchmarkReconstructBatchShape(b *testing.B) {
	tree, queries := batchShape(b)
	b.ReportAllocs()
	b.ResetTimer()
	var ids []uint64
	for i := 0; i < b.N; i++ {
		var err error
		if ids, err = tree.Reconstruct(queries[i%len(queries)], PruneByEstimate, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ids)), "ids/op")
}
