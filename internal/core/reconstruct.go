package core

import (
	"slices"

	"repro/internal/bloom"
)

// PruneRule selects how Reconstruct decides that a node's intersection
// with the query is empty (§5.6's practical problem: there is no reliable
// way to detect an empty set intersection).
type PruneRule int

const (
	// PruneByEstimate prunes subtrees whose estimated intersection size
	// falls below the tree's EmptyThreshold. This is the paper's
	// thresholding heuristic: fastest, but the estimator's noise at leaf
	// scale can prune sparse live branches, trading recall for speed.
	PruneByEstimate PruneRule = iota
	// PruneByAndBits prunes a subtree only when the bitwise AND of the
	// node filter and the query has no set bit — the paper's formal
	// definition of a (non-)overlap (Eq. 1). Any stored element sets all
	// its k bits in both filters, so a live branch always has a non-empty
	// AND: recall is perfect, at the cost of following more false set
	// overlap paths.
	PruneByAndBits
)

// Reconstruct returns the full set stored in the query Bloom filter q —
// S ∪ S(B), the stored elements plus the filter's false positives over the
// tree's namespace — by the recursive traversal of §6: subtrees whose
// intersection with q is deemed empty under the given rule are pruned; at
// the leaves the surviving ranges are brute-force checked and the
// positives unioned. The result is in ascending order. Under
// PruneByEstimate "deemed empty" is §5.6's threshold on the estimated
// intersection size, decided per child as a verdict without computing the
// estimate (childAlive); the decisions are those of the comparison.
//
// On a pruned tree the reconstruction is restricted to the occupied
// portion of the namespace, which is exactly the §8 setting.
func (t *Tree) Reconstruct(q *bloom.Filter, rule PruneRule, ops *Ops) ([]uint64, error) {
	ids, _, err := t.ReconstructVersion(q, rule, ops, nil)
	return ids, err
}

// ReconstructVersion is Reconstruct reading back what v — q's version
// (VersionFor), or nil for a caller that is owed the walk as the paper counts
// it — already knows, and returns the same ids. The walk asks for nothing
// that a version does not keep for sampling: the verdict on a child is its
// estimate compared with the threshold (bloom.IntersectionAtLeast is that
// comparison, decided early), so under PruneByEstimate a node the version's
// EstimateIndex covers reads its pair there, computed and filed on a miss
// like a draw's; and what a surviving leaf's brute-force check finds is the
// part of the version's Positives inside the leaf's range.
//
// The walk first collects its surviving leaves and pays the version the ids
// it is about to test in them (Version.Pay), and only then reads or scans:
// the reconstruction that takes a version past the price runs the version's
// one scan and answers from the table it leaves, and a version with a table
// tests nothing. Without a table — a nil version, one still renting, one
// that declined — every surviving leaf is scanned, as in Reconstruct.
//
// The tally returned holds the estimates the walk computed and read back
// (verdicts, which are not estimates, in neither) and the ids it tested: 0
// when every leaf was read from the table.
func (t *Tree) ReconstructVersion(q *bloom.Filter, rule PruneRule, ops *Ops, v *Version) ([]uint64, Estimates, error) {
	return t.AppendReconstruct(nil, q, rule, ops, v)
}

// AppendReconstruct is ReconstructVersion appending its ids to dst, for a
// caller that serves one reconstruction after another and keeps the slice:
// with room in dst a warm version's answer allocates nothing. On an error dst
// comes back as it was.
func (t *Tree) AppendReconstruct(dst []uint64, q *bloom.Filter, rule PruneRule, ops *Ops, v *Version) ([]uint64, Estimates, error) {
	if err := t.checkQuery(q); err != nil {
		return dst, Estimates{}, err
	}
	root := t.rootNode()
	if root == nil {
		return dst, Estimates{}, nil
	}
	d := descent{q: q, ops: ops}
	if rule == PruneByEstimate {
		d.index = v.Index()
	}
	// Room for the leaves of a depth-8 tree without a trip to the heap.
	var room [256]*node
	leaves := t.reconstructNode(root, 1, rule, &d, room[:0])
	tally := Estimates{Computed: d.computed, Remembered: d.remembered}
	var span uint64
	for _, n := range leaves {
		span += n.hi - n.lo
	}
	// The answer holds about n̂ ids plus the filter's false positives; sized
	// once from the cardinality estimate (O(1): the popcount is remembered)
	// it is not regrown, and copied, a dozen times on the way there.
	out := dst
	if est := q.EstimateCardinality(); est < float64(t.cfg.Namespace) {
		n := int(est)
		out = slices.Grow(out, n+n/8+64)
	}
	p := v.Positives()
	if p == nil {
		v.Pay(span)
		p = v.Positives()
	}
	if p != nil {
		// Surviving leaves that touch are read as one run: one search of the
		// table and one block entered mid-way for the run, not for
		// each leaf — and where the threshold drops nothing, one for the set.
		for i := 0; i < len(leaves); {
			lo, hi := leaves[i].lo, leaves[i].hi
			for i++; i < len(leaves) && leaves[i].lo == hi; i++ {
				hi = leaves[i].hi
			}
			out = p.AppendRange(lo, hi, out)
		}
		// A leaf published since the table's scan began may be among those
		// just read, and the table holds nothing of it: the table answers
		// only if the tree still has the nodes it was scanned under.
		if p.nodes == t.Nodes() {
			return out, tally, nil
		}
		out = out[:len(dst)]
	}
	for _, n := range leaves {
		out = t.positivesInLeaf(n, q, ops, out)
	}
	tally.Tested = span
	return out, tally, nil
}

// reconstructNode appends to leaves, left to right, the leaves under n that
// the walk reaches. n is the node at heap position pos (sampleAt has the
// numbering). Under PruneByEstimate a node the descent's index covers
// decides on its children's estimates, read through childEstimates; every
// other node, and the other rule, by childAlive.
func (t *Tree) reconstructNode(n *node, pos uint64, rule PruneRule, d *descent, leaves []*node) []*node {
	if d.ops != nil {
		d.ops.NodesVisited++
	}
	left, right := n.children()
	if left == nil && right == nil {
		return append(leaves, n)
	}
	var lOK, rOK bool
	if d.index.covers(pos) {
		// A missing child estimates to 0, under every threshold there is.
		lEst, rEst := t.childEstimates(pos, left, right, d)
		lOK, rOK = lEst >= t.cfg.EmptyThreshold, rEst >= t.cfg.EmptyThreshold
	} else {
		lOK = left != nil && t.childAlive(left, d.q, rule, d.ops)
		rOK = right != nil && t.childAlive(right, d.q, rule, d.ops)
	}
	if lOK {
		leaves = t.reconstructNode(left, 2*pos, rule, d, leaves)
	}
	if rOK {
		leaves = t.reconstructNode(right, 2*pos+1, rule, d, leaves)
	}
	return leaves
}

// childAlive applies the prune rule to one child. Neither rule needs the
// size of the intersection: PruneByAndBits stops at the first shared bit,
// and PruneByEstimate is §5.6's threshold read as a test on t∧ — the
// AND-popcount is taken only as far as the count at which the estimate
// reaches EmptyThreshold (bloom.IntersectionAtLeast), which a live branch
// gets to before the end of the vectors. Either way it is one intersection
// in Ops.
func (t *Tree) childAlive(child *node, q *bloom.Filter, rule PruneRule, ops *Ops) bool {
	if ops != nil {
		ops.Intersections++
	}
	if rule == PruneByAndBits {
		return child.filter().IntersectsAny(q)
	}
	return bloom.IntersectionAtLeast(child.filter(), q, t.cfg.EmptyThreshold)
}
