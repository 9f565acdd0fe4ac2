package bloom

import (
	"math/rand"
	"testing"
)

// TestIntersectionNeedIsTheEstimatesThreshold is the whole argument for
// IntersectionAtLeast, checked exhaustively where that is affordable: for
// every pair of set-bit counts with t1 + t2 ≤ m and every t∧ the AND of two
// such vectors can count — 0 to min(t1, t2) — the estimate reaches thr
// exactly when t∧ has reached IntersectionNeed. That covers t∧ = 0, the
// saturated branch (a count of 0.9·m or more, with the other at most a
// tenth) and filters with nothing in them. Where t1 + t2 > m the claim is
// false, which the test shows once so that the fallback in
// IntersectionAtLeast is seen to be needed; the filter-level test below
// covers that regime through the fallback.
func TestIntersectionNeedIsTheEstimatesThreshold(t *testing.T) {
	for _, m := range []uint64{64, 100, 256} {
		if raceEnabled && m > 100 {
			continue // 22 million estimates; the arithmetic has no concurrency to detect
		}
		for _, k := range []int{1, 3} {
			for _, thr := range []float64{0.25, 0.5, 1, 3} {
				for t1 := uint64(0); t1 <= m; t1++ {
					for t2 := uint64(0); t1+t2 <= m; t2++ {
						need := IntersectionNeed(m, k, t1, t2, thr)
						if need == 0 || need > min(t1, t2)+1 {
							t.Fatalf("m=%d k=%d t1=%d t2=%d thr=%v: need = %d", m, k, t1, t2, thr, need)
						}
						for tand := uint64(0); tand <= min(t1, t2); tand++ {
							if reaches := EstimateIntersection(m, k, t1, t2, tand) >= thr; reaches != (tand >= need) {
								t.Fatalf("m=%d k=%d t1=%d t2=%d thr=%v: estimate at t∧=%d reaches the threshold: %v, but need = %d",
									m, k, t1, t2, thr, tand, reaches, need)
							}
						}
					}
				}
			}
		}
	}
	if IntersectionNeed(256, 3, 0, 0, 0) != 0 || IntersectionNeed(256, 3, 100, 100, -1) != 0 {
		t.Fatal("a threshold every estimate reaches needs no shared bit")
	}

	// m = 256, two filters 150 bits full share at least 44. At exactly 44
	// the estimator's denominator is zero and its safety net answers 16;
	// at 45 the formula takes over and answers 0.
	if at, above := EstimateIntersection(256, 3, 150, 150, 44), EstimateIntersection(256, 3, 150, 150, 45); at < 0.5 || above >= 0.5 {
		t.Fatalf("estimates %v and %v at the fewest shared bits and one more: the estimate is monotone after all, and the fallback can go", at, above)
	}
}

// TestIntersectionAtLeastMatchesEstimate holds the verdict to the
// comparison it replaces on real filters: random pairs of every fill and
// overlap — empty, sparse, past t1 + t2 = m where the verdict falls back to
// the estimate, and saturated — at thresholds around the estimate itself,
// where the verdict turns, and at the tree's.
func TestIntersectionAtLeastMatchesEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	dense := 0
	for trial := 0; trial < 400; trial++ {
		fm := fam(t, uint64(64+rng.Intn(5000)))
		a, b := New(fm), New(fm)
		na, nb, shift := rng.Intn(3000), rng.Intn(3000), rng.Intn(4000)
		if trial%4 == 0 {
			na, nb = rng.Intn(40), rng.Intn(400)
		}
		for i := 0; i < na; i++ {
			a.Add(uint64(i))
		}
		for i := 0; i < nb; i++ {
			b.Add(uint64(i + shift))
		}
		if a.SetBits()+b.SetBits() > a.M() {
			dense++
		}
		est := EstimateIntersectionOf(a, b)
		for _, thr := range []float64{0, 0.25, 0.5, 1, 3, est * 0.999, est, est * 1.001, est + 1} {
			if got := IntersectionAtLeast(a, b, thr); got != (est >= thr) {
				t.Fatalf("trial %d (m=%d, bits %d and %d, %d shared): IntersectionAtLeast(%v) = %v, the estimate is %v",
					trial, a.M(), a.SetBits(), b.SetBits(), a.Bits().AndCount(b.Bits()), thr, got, est)
			}
		}
	}
	if dense < 50 || dense > 350 {
		t.Fatalf("%d of 400 pairs have t1 + t2 > m; both regimes should be well represented", dense)
	}
}
