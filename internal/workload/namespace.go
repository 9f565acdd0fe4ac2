package workload

import (
	"fmt"
	"math/rand"
	"slices"
)

// NamespaceLeaves is the number of equal ranges the §8.1 construction
// divides the full namespace into ("suppose we built a BloomSampleTree
// with 256 leaves").
const NamespaceLeaves = 256

// Range is a half-open interval [Lo, Hi) of the namespace.
type Range struct {
	Lo, Hi uint64
}

// Len returns the number of elements the range covers.
func (r Range) Len() uint64 { return r.Hi - r.Lo }

// Contains reports whether x lies in the range.
func (r Range) Contains(x uint64) bool { return x >= r.Lo && x < r.Hi }

// LeafRanges partitions [0, M) into count equal (±1) ranges.
func LeafRanges(M uint64, count int) []Range {
	out := make([]Range, count)
	for i := range out {
		out[i] = Range{
			Lo: M * uint64(i) / uint64(count),
			Hi: M * uint64(i+1) / uint64(count),
		}
	}
	return out
}

// SelectLeavesUniform picks ceil(fraction·count) distinct leaf indices
// uniformly at random (§8.1 "Uniform Namespace").
func SelectLeavesUniform(rng *rand.Rand, count int, fraction float64) ([]int, error) {
	k, err := leavesForFraction(count, fraction)
	if err != nil {
		return nil, err
	}
	perm := rng.Perm(count)
	idx := append([]int(nil), perm[:k]...)
	slices.Sort(idx)
	return idx, nil
}

// SelectLeavesClustered picks ceil(fraction·count) distinct leaf indices
// with the same pdf-splitting technique used for clustered query sets
// (§8.1 "Clustered Namespace": "We use the same technique as explained in
// Section 7").
func SelectLeavesClustered(rng *rand.Rand, count int, fraction float64, p float64) ([]int, error) {
	k, err := leavesForFraction(count, fraction)
	if err != nil {
		return nil, err
	}
	picked, err := ClusteredSet(rng, uint64(count), k, p)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(picked))
	for i, x := range picked {
		idx[i] = int(x)
	}
	slices.Sort(idx)
	return idx, nil
}

func leavesForFraction(count int, fraction float64) (int, error) {
	if count < 1 {
		return 0, fmt.Errorf("workload: leaf count %d", count)
	}
	if fraction <= 0 || fraction > 1 {
		return 0, fmt.Errorf("workload: namespace fraction %v out of (0,1]", fraction)
	}
	k := int(fraction*float64(count) + 0.999999)
	if k > count {
		k = count
	}
	if k < 1 {
		k = 1
	}
	return k, nil
}

// OccupiedNamespace describes a low-occupancy namespace: a large domain of
// which only the selected leaf ranges contain identifiers (§8).
type OccupiedNamespace struct {
	// M is the size of the full domain.
	M uint64
	// Leaves are the selected (occupied) ranges, ascending.
	Leaves []Range
	// IDs are the occupied identifiers, ascending and distinct.
	IDs []uint64
}

// Fraction returns the fraction of the domain the occupied leaves cover.
func (o *OccupiedNamespace) Fraction() float64 {
	var covered uint64
	for _, r := range o.Leaves {
		covered += r.Len()
	}
	return float64(covered) / float64(o.M)
}

// PopulateNamespace places population distinct identifiers uniformly into
// the selected leaf ranges of a domain of size M divided into leafCount
// equal leaves.
func PopulateNamespace(rng *rand.Rand, M uint64, leafCount int, leafIdx []int, population int) (*OccupiedNamespace, error) {
	if len(leafIdx) == 0 {
		return nil, fmt.Errorf("workload: no leaves selected")
	}
	all := LeafRanges(M, leafCount)
	leaves := make([]Range, len(leafIdx))
	var covered uint64
	for i, li := range leafIdx {
		if li < 0 || li >= leafCount {
			return nil, fmt.Errorf("workload: leaf index %d out of range [0,%d)", li, leafCount)
		}
		leaves[i] = all[li]
		covered += all[li].Len()
	}
	if uint64(population) > covered {
		return nil, fmt.Errorf("workload: population %d exceeds covered namespace %d", population, covered)
	}
	// Draw uniform offsets into the covered space, then map through the
	// leaf ranges; distinctness via a set (population << covered in all
	// experiment settings).
	seen := make(map[uint64]bool, population)
	ids := make([]uint64, 0, population)
	for len(ids) < population {
		off := rng.Uint64() % covered
		id := mapOffset(leaves, off)
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return &OccupiedNamespace{M: M, Leaves: leaves, IDs: ids}, nil
}

// mapOffset converts an offset into the concatenated covered space into a
// namespace identifier.
func mapOffset(leaves []Range, off uint64) uint64 {
	for _, r := range leaves {
		if off < r.Len() {
			return r.Lo + off
		}
		off -= r.Len()
	}
	// Unreachable for off < covered.
	last := leaves[len(leaves)-1]
	return last.Hi - 1
}
