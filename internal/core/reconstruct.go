package core

import "repro/internal/bloom"

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
//
// This is the walk as the paper runs and counts it, for library callers and
// the experiments. A served reconstruction does not walk: it answers with
// the filter version's packed positives (Version.Exact), which are the walk
// under PruneByAndBits on a full tree and every leaf's positives on any tree.
func (t *Tree) Reconstruct(q *bloom.Filter, rule PruneRule, ops *Ops) ([]uint64, error) {
	if err := t.checkQuery(q); err != nil {
		return nil, err
	}
	root := t.rootNode()
	if root == nil {
		return nil, nil
	}
	// The answer holds about n̂ ids plus the filter's false positives; sized
	// once from the cardinality estimate (O(1): the popcount is remembered)
	// it is not regrown, and copied, a dozen times on the way there.
	var out []uint64
	if est := q.EstimateCardinality(); est < float64(t.cfg.Namespace) {
		n := int(est)
		out = make([]uint64, 0, n+n/8+64)
	}
	var walked Ops
	out = t.reconstructNode(root, q, rule, &walked, out)
	ops.Add(walked)
	return out, nil
}

// reconstructNode appends to out, ascending, the positives of the leaves
// under n that the walk reaches: both children are judged by childAlive
// before either is entered, counting into ops.
func (t *Tree) reconstructNode(n *node, q *bloom.Filter, rule PruneRule, ops *Ops, out []uint64) []uint64 {
	ops.NodesVisited++
	left, right := n.children()
	if left == nil && right == nil {
		return t.positivesInLeaf(n, q, ops, out)
	}
	lOK := left != nil && t.childAlive(left, q, rule, ops)
	rOK := right != nil && t.childAlive(right, q, rule, ops)
	if lOK {
		out = t.reconstructNode(left, q, rule, ops, out)
	}
	if rOK {
		out = t.reconstructNode(right, q, rule, ops, out)
	}
	return out
}

// childAlive applies the prune rule to one child. Neither rule needs the
// size of the intersection: PruneByAndBits stops at the first shared bit,
// and PruneByEstimate is §5.6's threshold read as a test on t∧ — the
// AND-popcount (or, for a node held as its positions, the count of them
// set in q) is taken only as far as the count at which the estimate
// reaches EmptyThreshold (bloom.IntersectionAtLeast), which a live branch
// gets to before the end of the vectors. Either way it is one intersection
// in Ops.
func (t *Tree) childAlive(child *node, q *bloom.Filter, rule PruneRule, ops *Ops) bool {
	ops.Intersections++
	if rule == PruneByAndBits {
		return child.filter().intersectsAny(q)
	}
	return child.filter().atLeast(q, t.cfg.EmptyThreshold)
}
