// Package baseline implements the paper's two baseline methods (§4):
// DictionaryAttack, which fires a membership query for every element of
// the namespace, and HashInvert, which exploits weakly invertible hash
// functions to enumerate candidate preimages of set bits.
package baseline

import (
	"math/rand"

	"repro/internal/bloom"
	"repro/internal/core"
)

// DictionaryAttack samples from and reconstructs Bloom filters by brute
// force over a namespace [0, M): O(M) membership queries per operation.
type DictionaryAttack struct {
	// Namespace is the size M of the namespace.
	Namespace uint64
}

// Sample returns a uniformly random element of the set stored in q
// (including false positives) using reservoir sampling (Vitter's
// Algorithm R, [19]): the i-th positive replaces the current sample with
// probability 1/i, which yields an exactly uniform choice in one pass.
// ok is false when the filter answers negatively for the whole namespace.
func (d DictionaryAttack) Sample(q *bloom.Filter, rng *rand.Rand, ops *core.Ops) (x uint64, ok bool) {
	count := 0
	ops.Add(core.Ops{Memberships: d.Namespace})
	var scratch []uint64
	for y := uint64(0); y < d.Namespace; y++ {
		var hit bool
		hit, scratch = q.ContainsScratch(y, scratch)
		if hit {
			count++
			if rng.Intn(count) == 0 {
				x = y
			}
		}
	}
	return x, count > 0
}

// SampleN returns r elements sampled uniformly without replacement via
// reservoir sampling with a reservoir of size r. Fewer than r positives
// yields all of them.
func (d DictionaryAttack) SampleN(q *bloom.Filter, r int, rng *rand.Rand, ops *core.Ops) []uint64 {
	if r <= 0 {
		return nil
	}
	ops.Add(core.Ops{Memberships: d.Namespace})
	reservoir := make([]uint64, 0, r)
	count := 0
	var scratch []uint64
	for y := uint64(0); y < d.Namespace; y++ {
		var hit bool
		hit, scratch = q.ContainsScratch(y, scratch)
		if !hit {
			continue
		}
		count++
		if len(reservoir) < r {
			reservoir = append(reservoir, y)
		} else if j := rng.Intn(count); j < r {
			reservoir[j] = y
		}
	}
	return reservoir
}

// Reconstruct returns every element of [0, M) answering positively, in
// ascending order — the paper's definition of reconstructing S ∪ S(B).
func (d DictionaryAttack) Reconstruct(q *bloom.Filter, ops *core.Ops) []uint64 {
	ops.Add(core.Ops{Memberships: d.Namespace})
	var out []uint64
	var scratch []uint64
	for y := uint64(0); y < d.Namespace; y++ {
		var hit bool
		hit, scratch = q.ContainsScratch(y, scratch)
		if hit {
			out = append(out, y)
		}
	}
	return out
}
