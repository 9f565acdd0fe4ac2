package core

import (
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
// positives unioned. The result is in ascending order.
//
// On a pruned tree the reconstruction is restricted to the occupied
// portion of the namespace, which is exactly the §8 setting.
func (t *Tree) Reconstruct(q *bloom.Filter, rule PruneRule, ops *Ops) ([]uint64, error) {
	if err := t.checkQuery(q); err != nil {
		return nil, err
	}
	root := t.rootNode()
	if root == nil {
		return nil, nil
	}
	return t.reconstructNode(root, q, rule, ops, nil), nil
}

func (t *Tree) reconstructNode(n *node, q *bloom.Filter, rule PruneRule, ops *Ops, out []uint64) []uint64 {
	if ops != nil {
		ops.NodesVisited++
	}
	left, right := n.children()
	if left == nil && right == nil {
		return t.positivesInLeaf(n, q, ops, out)
	}
	if left != nil && t.childAlive(left, q, rule, ops) {
		out = t.reconstructNode(left, q, rule, ops, out)
	}
	if right != nil && t.childAlive(right, q, rule, ops) {
		out = t.reconstructNode(right, q, rule, ops, out)
	}
	return out
}

// childAlive applies the prune rule to one child.
func (t *Tree) childAlive(child *node, q *bloom.Filter, rule PruneRule, ops *Ops) bool {
	if ops != nil {
		ops.Intersections++
	}
	if rule == PruneByAndBits {
		return child.filter().IntersectsAny(q)
	}
	return child.filter().IntersectionEstimate(q) >= t.cfg.EmptyThreshold
}
