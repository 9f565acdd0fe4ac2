package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bloom"
	"repro/internal/hashfam"
	"repro/internal/membership"
	"repro/internal/stats"
)

// scanLeaf is the leaf every draw ended in before the sampled leaf: check
// the whole range, reservoir over the positives. It is kept as the
// reference sampleLeaf's distribution is held to.
func (t *Tree) scanLeaf(n *node, d *descent) (uint64, bool) {
	hits := t.positivesInLeaf(n, d.q, &d.ops, d.scratch[:0])
	d.scratch = hits
	var chosen uint64
	for i, x := range hits {
		if d.rng.Intn(i+1) == 0 {
			chosen = x
		}
	}
	return chosen, len(hits) > 0
}

// sampleScanned is sampleNode with scanLeaf at the bottom and nothing
// remembered: Algorithm 1 as the paper writes it.
func (t *Tree) sampleScanned(n *node, d *descent) (uint64, bool) {
	left, right := n.children()
	if left == nil && right == nil {
		return t.scanLeaf(n, d)
	}
	lEst, rEst := t.childEstimate(left, d.q, &d.ops), t.childEstimate(right, d.q, &d.ops)
	if thr := t.cfg.EmptyThreshold; lEst < thr && rEst < thr {
		return 0, false
	}
	first, second := left, right
	if p := lEst / (lEst + rEst); d.rng.Float64() >= p {
		first, second = right, left
	}
	if x, ok := t.sampleScanned(first, d); ok {
		return x, true
	}
	if second == nil {
		return 0, false
	}
	return t.sampleScanned(second, d)
}

// TestSampledLeafIsUniformOverItsPositives drives sampleLeaf alone — a tree
// of depth 0 is one leaf — on the benchmark's batch shape, a 7 812-id leaf,
// holding P positives: none (the false-positive leaf, which must be proven
// empty at the full price of the probes and then the scan), one (found on
// every draw, nearly always by the scan), a few (both branches in use), the
// 87 the planner sizes the leaf for (probes alone), and the whole range.
func TestSampledLeafIsUniformOverItsPositives(t *testing.T) {
	const span = 7812
	cfg := Config{Namespace: span, Bits: 1 << 22, K: 3, Seed: 9, Depth: 0}
	tree, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, P := range []int{0, 1, 2, 5, 87, span} {
		t.Run(fmt.Sprintf("P=%d", P), func(t *testing.T) {
			q := tree.NewQueryFilter()
			if P == span {
				q.Bits().Fill()
			} else {
				for _, x := range uniformSet(rand.New(rand.NewSource(int64(P))), span, P) {
					q.Add(x)
				}
			}
			positives := tree.positivesInLeaf(tree.rootNode(), q, new(Ops), nil)
			if len(positives) != P {
				t.Fatalf("the filter holds %d positives", len(positives))
			}
			cell := make(map[uint64]int, P)
			for i, x := range positives {
				cell[x] = i
			}

			draws := max(2000, 40*P)
			counts := make([]int, P)
			rng := rand.New(rand.NewSource(int64(100 + P)))
			var ops Ops
			var scratch []uint64
			for i := 0; i < draws; i++ {
				var x uint64
				x, scratch, err = tree.SampleScratch(q, rng, &ops, scratch)
				if P == 0 {
					if err != ErrNoSample {
						t.Fatalf("an empty leaf returned %d, %v", x, err)
					}
					continue
				}
				c, ok := cell[x]
				if err != nil || !ok {
					t.Fatalf("draw %d returned %d, %v", i, x, err)
				}
				counts[c]++
			}
			if ops.LeavesScanned != uint64(draws) || ops.NodesVisited != uint64(draws) || ops.Intersections != 0 {
				t.Fatalf("%d draws counted %v", draws, &ops)
			}
			perDraw := float64(ops.Memberships) / float64(draws)
			switch {
			case P == 0 && ops.Memberships != uint64(draws)*(span/8+span):
				t.Fatalf("an empty leaf cost %.1f probes a draw, want exactly span/8 + span = %d", perDraw, span/8+span)
			case P == 87 && perDraw > 2*span/87:
				t.Fatalf("a leaf of 87 positives cost %.1f probes a draw, expected ≈ span/87 = %d", perDraw, span/87)
			case P == span && perDraw != 1:
				t.Fatalf("a leaf of nothing but positives cost %.1f probes a draw", perDraw)
			case perDraw > span/8+span:
				t.Fatalf("%.1f probes a draw is above the worst case", perDraw)
			}
			if P < 2 {
				return
			}
			res, err := stats.ChiSquaredUniform(counts)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d draws, %.1f probes a draw: %v", draws, perDraw, res)
			if res.Reject(0.01) {
				t.Fatalf("draws are not uniform over the %d positives: %v", P, res)
			}
		})
	}
}

// TestSampledLeafDrawsLikeScannedLeaf holds a whole draw to the reference
// on a namespace small enough to count every positive: 200 000 draws
// through sampleLeaf against 200 000 through the scan-and-reservoir leaf,
// on every backend's query view and on a fused-probe and a block-scanned
// hash family, compared cell by cell over the filter's positives by a
// two-sample chi-squared test. BSTSample is only near-uniform, which is why
// the reference is the old leaf and not the uniform distribution.
func TestSampledLeafDrawsLikeScannedLeaf(t *testing.T) {
	const (
		M     = 4096
		draws = 200_000
	)
	for _, backend := range []membership.Kind{membership.KindBloom, membership.KindCounting} {
		for _, kind := range []hashfam.Kind{hashfam.KindFast, hashfam.KindMurmur3} {
			t.Run(fmt.Sprintf("%s/%s", backend, kind), func(t *testing.T) {
				cfg := testConfig(t, M, 200, 0.9, 5) // 128-id leaves: 16 probes, then the scan
				cfg.HashKind = kind
				tree, err := BuildTree(cfg)
				if err != nil {
					t.Fatal(err)
				}
				set := uniformSet(rand.New(rand.NewSource(4)), M, 200)
				var q *bloom.Filter
				if backend == membership.KindBloom {
					q = buildQueryFilter(t, tree, set)
				} else {
					dyn, err := membership.NewDynamicWith(backend, tree.Family(), 200, set)
					if err != nil {
						t.Fatal(err)
					}
					q = dyn.QueryView()
				}
				var positives []uint64
				cell := make(map[uint64]int)
				for x := uint64(0); x < M; x++ {
					if q.Contains(x) {
						cell[x] = len(positives)
						positives = append(positives, x)
					}
				}

				count := func(name string, draw func() (uint64, bool)) []int {
					counts := make([]int, len(positives))
					for i := 0; i < draws; i++ {
						x, ok := draw()
						c, positive := cell[x]
						if !ok || !positive {
							t.Fatalf("%s leaf: draw %d returned %d, %v", name, i, x, ok)
						}
						counts[c]++
					}
					return counts
				}
				sampled := descent{q: q, rng: rand.New(rand.NewSource(5)), index: tree.VersionFor(q).Index()}
				scanned := descent{q: q, rng: rand.New(rand.NewSource(6))}
				got := count("sampled", func() (uint64, bool) { return tree.sampleNode(tree.rootNode(), &sampled) })
				want := count("scanned", func() (uint64, bool) { return tree.sampleScanned(tree.rootNode(), &scanned) })

				// Equal totals, so the statistic is Σ (a−b)²/(a+b).
				var chi2 float64
				df := -1
				for i := range positives {
					if a, b := float64(got[i]), float64(want[i]); a+b > 0 {
						chi2 += (a - b) * (a - b) / (a + b)
						df++
					}
				}
				p := stats.ChiSquaredSurvival(chi2, df)
				t.Logf("%d positives, chi2=%.1f df=%d p=%.4f", len(positives), chi2, df, p)
				if p < 0.01 {
					t.Fatalf("sampled and scanned leaves draw differently: chi2=%.1f df=%d p=%.4f", chi2, df, p)
				}
			})
		}
	}
}
