package core

import (
	"math/rand"

	"repro/internal/bloom"
)

// SampleN draws r elements from the set stored in q in a single pass down
// the tree (§5.3 "Sampling multiple items"): all r search paths move down
// together, and at each internal node where both children intersect q the
// paths are split by independent biased coin flips, so shared prefixes of
// the paths pay for their intersections only once.
//
// If withReplacement is true, a leaf reached by several paths may return
// the same element more than once; otherwise the returned elements are
// globally distinct, as if the leaf positives were drawn without
// replacement.
//
// The returned slice holds between 0 and r elements; fewer than r means
// some paths ended in false-positive leaves or, without replacement, the
// query's positives were exhausted.
//
// SampleN is the paper's algorithm and is kept as that: for the library, the
// examples and the bstbench arms that count its operations. It is not what
// the database serves batches with, and will not be. A served batch is r
// independent draws (SampleVersion under setdb.SampleMany) that read their child
// estimates from the filter version's EstimateIndex and sample their leaf,
// where SampleN shares path prefixes within one call but scans every leaf it
// reaches whole: on the benchmark's batch shape (64 draws, 128 leaves of
// 7 812 ids) 3.2 estimates and 6 287 probes a draw against 0 estimates on a
// warm version and 97 probes, 66 µs against 2.3 µs (one traced run,
// 2026-10-02). See README, "Hash families and the probe path".
func (t *Tree) SampleN(q *bloom.Filter, r int, withReplacement bool, rng *rand.Rand, ops *Ops) ([]uint64, error) {
	if err := t.checkQuery(q); err != nil {
		return nil, err
	}
	root := t.rootNode()
	if r <= 0 || root == nil {
		return nil, nil
	}
	st := &multiState{drained: make(map[*node]bool)}
	if !withReplacement {
		st.exclude = make(map[uint64]bool)
	}
	out := t.multiNode(root, q, r, st, rng)
	ops.Add(st.ops)
	return out, nil
}

// multiState carries per-call bookkeeping for SampleN. exclude (nil in
// with-replacement mode) holds elements already returned; drained marks
// subtrees that have yielded everything they can, so backtracking never
// re-descends them (this keeps the pass linear even when r far exceeds the
// number of positives). ops is what the pass did.
type multiState struct {
	exclude map[uint64]bool
	drained map[*node]bool
	ops     Ops
}

// multiNode routes r paths through n and returns the samples produced.
func (t *Tree) multiNode(n *node, q *bloom.Filter, r int, st *multiState, rng *rand.Rand) []uint64 {
	if st.drained[n] {
		return nil
	}
	st.ops.NodesVisited++
	left, right := n.children()
	if left == nil && right == nil {
		out := t.multiLeaf(n, q, r, st, rng)
		if len(out) < r {
			st.drained[n] = true
		}
		return out
	}

	lEst := t.childEstimate(left, q, &st.ops)
	rEst := t.childEstimate(right, q, &st.ops)
	thr := t.cfg.EmptyThreshold
	lOK, rOK := lEst >= thr, rEst >= thr

	var out []uint64
	switch {
	case !lOK && !rOK:
		st.drained[n] = true
		return nil
	case lOK && !rOK:
		out = t.multiNode(left, q, r, st, rng)
	case !lOK && rOK:
		out = t.multiNode(right, q, r, st, rng)
	default:
		// Split the r paths between the children with independent biased
		// coins, exactly as r separate BSTSample runs would (§5.3), so the
		// per-path distribution is unchanged.
		pLeft := lEst / (lEst + rEst)
		toLeft := 0
		for i := 0; i < r; i++ {
			if rng.Float64() < pLeft {
				toLeft++
			}
		}
		if toLeft > 0 {
			out = append(out, t.multiNode(left, q, toLeft, st, rng)...)
		}
		if r-toLeft > 0 {
			out = append(out, t.multiNode(right, q, r-toLeft, st, rng)...)
		}
		// Reroute unsatisfied paths into the sibling (backtracking), as
		// BSTSample does for a single path; drained marks prevent
		// re-scanning exhausted subtrees.
		if deficit := r - len(out); deficit > 0 {
			st.ops.Backtracks++
			firstChild, secondChild := left, right
			if rEst > lEst {
				firstChild, secondChild = right, left
			}
			out = append(out, t.multiNode(firstChild, q, deficit, st, rng)...)
			if deficit = r - len(out); deficit > 0 {
				out = append(out, t.multiNode(secondChild, q, deficit, st, rng)...)
			}
			if len(out) > r {
				out = out[:r]
			}
		}
	}
	if len(out) < r {
		// Both children have been given the chance to cover the deficit;
		// anything still missing does not exist in this subtree.
		st.drained[n] = true
	}
	return out
}

// multiLeaf resolves r paths arriving at one leaf.
func (t *Tree) multiLeaf(n *node, q *bloom.Filter, r int, st *multiState, rng *rand.Rand) []uint64 {
	pos := t.positivesInLeaf(n, q, &st.ops, nil)
	if st.exclude == nil { // with replacement
		if len(pos) == 0 {
			return nil
		}
		out := make([]uint64, r)
		for i := range out {
			out[i] = pos[rng.Intn(len(pos))]
		}
		return out
	}
	// Without replacement: drop already-returned elements, then partial
	// Fisher–Yates over the remainder.
	avail := pos[:0]
	for _, x := range pos {
		if !st.exclude[x] {
			avail = append(avail, x)
		}
	}
	take := r
	if take > len(avail) {
		take = len(avail)
	}
	for i := 0; i < take; i++ {
		j := i + rng.Intn(len(avail)-i)
		avail[i], avail[j] = avail[j], avail[i]
		st.exclude[avail[i]] = true
	}
	return avail[:take]
}
