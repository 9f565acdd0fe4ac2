package baseline

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/hashfam"
)

// HashInvert samples from and reconstructs Bloom filters whose hash
// functions are weakly invertible (§4): given a set bit position s, the
// candidate preimages {y : h_i(y) = s} can be enumerated in O(M/m) time
// per hash function and pruned with membership queries.
type HashInvert struct {
	// Namespace is the size M of the namespace.
	Namespace uint64
}

// invertible extracts the Invertible interface from a filter's family, or
// reports an error for non-invertible families (Murmur3, MD5, FNV).
func invertible(q *bloom.Filter) (hashfam.Invertible, error) {
	inv, ok := q.Family().(hashfam.Invertible)
	if !ok {
		return nil, fmt.Errorf("baseline: hash family %q is not weakly invertible", q.Family().Kind())
	}
	return inv, nil
}

// Sample draws an element from the set stored in q: a uniformly random SET
// bit s is inverted under each of the k hash functions into candidate sets
// P_1(s)..P_k(s), the candidates are pruned by membership queries, and a
// uniform choice among the survivors is returned. As the paper notes, no
// uniformity guarantee holds for the overall sample (elements reachable
// from popular bits are favoured). ok is false if the filter is empty or
// the chosen bit's candidates all fail the membership test (possible when
// s was set by hash functions other than those inverted — retry in that
// case).
func (h HashInvert) Sample(q *bloom.Filter, rng *rand.Rand, ops *core.Ops) (uint64, bool, error) {
	inv, err := invertible(q)
	if err != nil {
		return 0, false, err
	}
	set := q.SetBits()
	if set == 0 {
		return 0, false, nil
	}
	// Pick the j-th set bit uniformly; locating it costs O(m) (§4:
	// "sampling a set bit takes O(m) time").
	j := rng.Int63n(int64(set))
	var s uint64
	q.ForEachSetBit(func(pos uint64) bool {
		if j == 0 {
			s = pos
			return false
		}
		j--
		return true
	})

	// Invert s under every hash function and prune with membership
	// queries, reservoir-sampling the survivors so no candidate set is
	// materialized (the paper's no-extra-space observation). Candidates
	// may repeat across hash functions; de-duplicate by skipping y whose
	// earlier-inverting function index already produced it.
	var chosen uint64
	count, probes := 0, uint64(0)
	var buf []uint64
	for i := 0; i < q.K(); i++ {
		buf = inv.Preimages(i, s, 0, h.Namespace, buf[:0])
		for _, y := range buf {
			if dup := firstHitIndex(inv, y, s); dup < i {
				continue
			}
			probes++
			if q.Contains(y) {
				count++
				if rng.Intn(count) == 0 {
					chosen = y
				}
			}
		}
	}
	ops.Add(core.Ops{Memberships: probes})
	return chosen, count > 0, nil
}

// firstHitIndex returns the smallest hash-function index mapping y to s.
func firstHitIndex(inv hashfam.Invertible, y, s uint64) int {
	pos := inv.Positions(y, nil)
	for i, p := range pos {
		if p == s {
			return i
		}
	}
	return len(pos)
}

// Reconstruct returns the set stored in q (true elements plus false
// positives) in ascending order. It inverts the first hash function over
// either the SET bits or, for dense filters, the UNSET bits (the §4
// "simple trick": elements whose h_1 position is unset are certainly
// absent, so the survivors of the complement are membership-tested). The
// variant is chosen automatically by fill ratio; both cost O(t·M/m)
// inversions plus the membership tests.
func (h HashInvert) Reconstruct(q *bloom.Filter, ops *core.Ops) ([]uint64, error) {
	inv, err := invertible(q)
	if err != nil {
		return nil, err
	}
	if q.FillRatio() <= 0.5 {
		return h.reconstructFromSetBits(q, inv, ops), nil
	}
	return h.reconstructFromUnsetBits(q, inv, ops), nil
}

// reconstructFromSetBits enumerates, for every set bit s, the h_1
// preimages of s, and membership-tests each. Because the h_1 preimage sets
// partition the namespace, every positive element is found exactly once
// (its h_1 bit is necessarily set) and no deduplication is needed.
func (h HashInvert) reconstructFromSetBits(q *bloom.Filter, inv hashfam.Invertible, ops *core.Ops) []uint64 {
	var out, buf []uint64
	probes := uint64(0)
	q.ForEachSetBit(func(s uint64) bool {
		buf = inv.Preimages(0, s, 0, h.Namespace, buf[:0])
		probes += uint64(len(buf))
		for _, y := range buf {
			if q.Contains(y) {
				out = append(out, y)
			}
		}
		return true
	})
	ops.Add(core.Ops{Memberships: probes})
	slices.Sort(out)
	return out
}

// reconstructFromUnsetBits marks the h_1 preimages of every UNSET bit as
// certainly-absent and membership-tests only the unmarked elements.
func (h HashInvert) reconstructFromUnsetBits(q *bloom.Filter, inv hashfam.Invertible, ops *core.Ops) []uint64 {
	excluded := make([]bool, h.Namespace)
	var buf []uint64
	q.ForEachClearBit(func(s uint64) bool {
		buf = inv.Preimages(0, s, 0, h.Namespace, buf[:0])
		for _, y := range buf {
			excluded[y] = true
		}
		return true
	})
	var out []uint64
	probes := uint64(0)
	for y := uint64(0); y < h.Namespace; y++ {
		if excluded[y] {
			continue
		}
		probes++
		if q.Contains(y) {
			out = append(out, y)
		}
	}
	ops.Add(core.Ops{Memberships: probes})
	return out
}
