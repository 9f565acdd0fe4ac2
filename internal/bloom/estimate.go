package bloom

import (
	"math"
	"sort"
)

// FalsePositiveRate returns the standard Bloom-filter false-positive
// probability (1 − e^{−kn/m})^k for a filter of m bits, k hash functions
// and n stored elements (§3.1).
func FalsePositiveRate(m uint64, k int, n uint64) float64 {
	if m == 0 {
		return 1
	}
	return math.Pow(1-math.Exp(-float64(k)*float64(n)/float64(m)), float64(k))
}

// FalseSetOverlapProb returns the probability of Eq. (1): for two disjoint
// sets of sizes n1 and n2 stored in filters of m bits with k hash
// functions, the probability that the bitwise AND of the filters is
// non-empty even though the sets are disjoint:
//
//	P[FSO∩] = 1 − (1 − 1/m)^{k²·n1·n2}
func FalseSetOverlapProb(m uint64, k int, n1, n2 uint64) float64 {
	if m == 0 {
		return 1
	}
	exponent := float64(k) * float64(k) * float64(n1) * float64(n2)
	// (1−1/m)^e = exp(e·log1p(−1/m)); log1p keeps precision for large m.
	return 1 - math.Exp(exponent*math.Log1p(-1/float64(m)))
}

// EstimateCardinalityFromCounts returns the paper's population estimate
// n̂ = ln(ẑ/m) / (k·ln(1−1/m)) given the number of zero bits ẑ
// (Prop. 5.2 proof). zero == 0 (a saturated filter) yields +Inf.
func EstimateCardinalityFromCounts(m uint64, k int, zero uint64) float64 {
	if zero == 0 {
		return math.Inf(1)
	}
	if zero >= m {
		return 0
	}
	return math.Log(float64(zero)/float64(m)) / (float64(k) * math.Log1p(-1/float64(m)))
}

// EstimateCardinality returns the estimated number of distinct elements
// stored in f.
func (f *Filter) EstimateCardinality() float64 {
	return EstimateCardinalityFromCounts(f.M(), f.K(), f.M()-f.SetBits())
}

// EstimateIntersection returns the Papapetrou et al. estimate of the size
// of the intersection of the sets stored in two filters (§5.3):
//
//	Ŝ⁻¹(t1,t2,t∧) = [ln(m − (t∧·m − t1·t2)/(m − t1 − t2 + t∧)) − ln m]
//	                 / (k·ln(1 − 1/m))
//
// where t1 and t2 are the set-bit counts of the two filters and t∧ the
// set-bit count of their bitwise AND. Degenerate inputs (saturated
// filters, t∧ ≥ min(t1,t2) rounding artifacts) are clamped to sensible
// non-negative values; an all-zero AND yields 0.
func EstimateIntersection(m uint64, k int, t1, t2, tand uint64) float64 {
	if tand == 0 {
		return 0
	}
	mf := float64(m)
	// Saturation guard: when either filter has nearly all bits set, the
	// estimator's signal (shared bits beyond the t1·t2/m chance level)
	// vanishes and the formula returns noise — including spurious zeros
	// that would prune live branches of the BloomSampleTree. A saturated
	// filter carries no information, so fall back to the smaller of the
	// two single-filter cardinalities (an upper bound on the intersection
	// and the best remaining estimate).
	const saturation = 0.9
	if float64(t1) >= saturation*mf || float64(t2) >= saturation*mf {
		return math.Min(
			EstimateCardinalityFromCounts(m, k, m-t1),
			EstimateCardinalityFromCounts(m, k, m-t2))
	}
	denomInner := mf - float64(t1) - float64(t2) + float64(tand)
	if denomInner <= 0 {
		// Unreachable for unsaturated filters (t∧ ≤ min(t1,t2) keeps the
		// denominator positive when t1+t2 < m·(1+sat)); kept as a safety
		// net for adversarial counts.
		return EstimateCardinalityFromCounts(m, k, m-tand)
	}
	inner := mf - (float64(tand)*mf-float64(t1)*float64(t2))/denomInner
	if inner <= 0 {
		return math.Inf(1) // AND explains more than the whole filter: huge set
	}
	if inner >= mf {
		return 0 // estimated zero count >= m: empty intersection
	}
	est := (math.Log(inner) - math.Log(mf)) / (float64(k) * math.Log1p(-1/mf))
	if est < 0 {
		return 0
	}
	return est
}

// EstimateIntersectionOf computes EstimateIntersection directly from two
// filters, without materializing their AND. It is read-only on both
// filters and safe for unsynchronized concurrent callers.
//
// The cost is one pass over the two word arrays — the AND popcount. The
// individual set-bit counts are properties of one vector each, which the
// bit vector remembers after the first time it is asked, so against the
// immutable filters of a tree and a pinned query they are O(1). A zero
// AND — the common case at the sparse lower levels of a BloomSampleTree
// descent — returns 0 without asking for them at all.
//
// Its callers are the ones that use the value: a sampling descent weighs a
// node's two children by their estimates (every backend's
// IntersectionEstimate is this function), and the database's
// set-intersection query returns it. A caller that only compares the
// estimate with a threshold — reconstruction's pruning — asks
// IntersectionAtLeast, which seldom needs the whole pass.
func EstimateIntersectionOf(a, b *Filter) float64 {
	tand := a.bits.AndCount(b.bits)
	if tand == 0 {
		return 0
	}
	return EstimateIntersection(a.M(), a.K(), a.bits.Count(), b.bits.Count(), tand)
}

// IntersectionAtLeast reports whether EstimateIntersectionOf(a, b) ≥ thr —
// §5.6's "is this intersection empty?" — for the price of the verdict
// instead of the estimate. t1 and t2 are O(1) and, while t1 + t2 ≤ m, the
// estimate is non-decreasing in t∧ over every value the AND-popcount can
// take (see IntersectionNeed), so the verdict is a test on t∧ alone: the
// smallest t∧ whose estimate reaches thr is worked out first, and the
// popcount stops as soon as it gets there (bitset.AndCountAtLeast). For a
// small threshold that count is about t1·t2/m, what two unrelated filters
// would share by chance — the estimator measures the excess over it — so a
// live branch of a BloomSampleTree is decided where its shared bits pass
// the chance level (two thirds of the way through the vectors for a
// tenth-full query against the nodes that hold its ids), and only a branch
// about to be pruned is counted to the end. Callers that need the value —
// a sampling descent weighs its two children by it — call
// EstimateIntersectionOf. Read-only on both filters and safe for
// unsynchronized concurrent callers.
func IntersectionAtLeast(a, b *Filter, thr float64) bool {
	m, t1, t2 := a.M(), a.bits.Count(), b.bits.Count()
	if t1+t2 > m {
		// Two filters this full share bits by pigeonhole, and at the
		// fewest they can share the estimator's denominator is zero and
		// its safety net answers: no single bound on t∧ decides. Decide on
		// the value.
		return EstimateIntersectionOf(a, b) >= thr
	}
	need := IntersectionNeed(m, a.K(), t1, t2, thr)
	return need <= min(t1, t2) && a.bits.AndCountAtLeast(b.bits, need)
}

// IntersectionNeed returns, for set-bit counts with t1 + t2 ≤ m, the
// smallest t∧ in [0, min(t1, t2)] for which EstimateIntersection(m, k, t1,
// t2, t∧) ≥ thr, and min(t1, t2) + 1 when none is. Every larger t∧ reaches
// thr too: the estimate is 0 at t∧ = 0; above it the quotient (t∧·m −
// t1·t2)/(m − t1 − t2 + t∧) has a positive denominator and the derivative
// (m − t1)(m − t2)/(m − t1 − t2 + t∧)² ≥ 0, the estimate grows with the
// quotient through each of its clamps, and the saturated branch does not
// look at t∧ at all.
//
// So the answer is the one t∧ whose estimate reaches thr while its
// predecessor's does not, and EstimateIntersection itself is the judge of
// that: the estimator solved for t∧ only proposes the candidate — two
// evaluations when it is right, which away from saturation it is — and
// when it is not, a bisection of the same predicate finds it.
//
// It is exported for a caller that counts t∧ without a second filter (a
// tree node held as its set positions) and must reach IntersectionAtLeast's
// verdict.
func IntersectionNeed(m uint64, k int, t1, t2 uint64, thr float64) uint64 {
	most := min(t1, t2)
	reaches := func(tand uint64) bool { return EstimateIntersection(m, k, t1, t2, tand) >= thr }

	// Ŝ⁻¹ ≥ thr ⇔ the formula's inner term ≤ m·(1 − 1/m)^(k·thr) = z ⇔
	// t∧ ≥ (t1·t2 + (m − z)(m − t1 − t2))/z: for a small threshold, a
	// little above the t1·t2/m that chance alone makes two filters share.
	mf := float64(m)
	z := mf * math.Exp(float64(k)*thr*math.Log1p(-1/mf))
	if guess := math.Ceil((float64(t1)*float64(t2) + (mf-z)*(mf-float64(t1)-float64(t2))) / z); guess >= 0 && guess <= float64(most) {
		if g := uint64(guess); reaches(g) && (g == 0 || !reaches(g-1)) {
			return g
		}
	}
	return uint64(sort.Search(int(most)+1, func(tand int) bool { return reaches(uint64(tand)) }))
}

// Accuracy returns the paper's accuracy measure (§5.4)
//
//	acc = n / (n + (M−n)·FP)
//
// for a query set of size n in a namespace of size M with false-positive
// rate FP: the ratio of true elements to all elements that answer a
// membership query positively.
func Accuracy(n, M uint64, fp float64) float64 {
	if n == 0 {
		return 0
	}
	return float64(n) / (float64(n) + float64(M-n)*fp)
}
