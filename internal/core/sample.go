package core

import (
	"fmt"
	"math/rand"

	"repro/internal/bloom"
)

// ErrNoSample is returned by Sample when the search exhausts the tree
// without finding any element answering positively — possible only when
// the query filter is empty or every branch taken was a false set overlap.
var ErrNoSample = fmt.Errorf("core: no sample found")

// Sample draws one element approximately uniformly at random from the set
// stored in the query Bloom filter q, following Algorithm 1 (BSTSample):
// descend from the root, at each internal node estimating the size of the
// intersection of each child filter with q (§5.3's Ŝ⁻¹ estimator),
// pruning children whose estimate falls below the empty threshold (§5.6),
// choosing among the rest with probability proportional to the estimates,
// and backtracking to the sibling when a branch turns out to be a false
// positive path. At a leaf, the whole leaf range is checked by membership
// queries and a uniform choice among the positives is returned.
//
// The returned element is a member of S ∪ S(B) — the stored set plus the
// filter's false positives — per the problem statement (§1). ops, if
// non-nil, accumulates operation counts.
func (t *Tree) Sample(q *bloom.Filter, rng *rand.Rand, ops *Ops) (uint64, error) {
	x, _, err := t.SampleScratch(q, rng, ops, nil)
	return x, err
}

// SampleScratch is Sample with a caller-owned scratch buffer: the leaf
// scan collects its positives in scratch instead of allocating, and the
// possibly grown buffer is returned for the next call. A steady-state
// sampling loop that threads the returned buffer back in performs zero
// heap allocations per draw. Like Sample it is read-only on the tree and
// the query filter; the caller owns rng, ops and scratch.
func (t *Tree) SampleScratch(q *bloom.Filter, rng *rand.Rand, ops *Ops, scratch []uint64) (uint64, []uint64, error) {
	return t.SampleMemo(q, rng, ops, scratch, nil)
}

// Memo remembers, for the draws one worker makes against one pinned,
// immutable query filter, the child estimates of every internal node a
// descent has already passed. The estimates depend only on the node's
// filters and the query, so a later descent that reaches the node reads
// them back instead of paying two m-bit AND-popcounts again: r draws cost
// as many estimates as they touch distinct nodes, not r·depth — what §5.3's
// multi-sample achieves, with the draws left independent.
//
// The zero Memo is ready to use. It is not safe for concurrent use, and it
// must be Reset at the end of the batch, before it meets another filter or
// filter version: what it remembers describes one query against the tree
// as the batch saw it (later growth would go unnoticed) and keeps the
// nodes reachable.
type Memo struct {
	ests map[*node][2]float64
}

// Reset forgets everything. The table's memory is kept for the next batch
// unless the batch was large enough that clearing it again and again would
// cost small batches more than allocating afresh.
func (m *Memo) Reset() {
	if len(m.ests) > memoKeep {
		m.ests = nil
	} else {
		clear(m.ests)
	}
}

// memoKeep is the largest table a Memo holds on to across Reset.
const memoKeep = 1024

// SampleMemo is SampleScratch reading child estimates through memo (nil
// means none). For a given rng state it returns exactly the id
// SampleScratch would — same branch rule, same backtracking, same rng
// consumption — so everything known about the draws' distribution carries
// over; only the intersections drop. ops.Intersections counts estimates
// computed, not remembered ones read back.
func (t *Tree) SampleMemo(q *bloom.Filter, rng *rand.Rand, ops *Ops, scratch []uint64, memo *Memo) (uint64, []uint64, error) {
	if err := t.checkQuery(q); err != nil {
		return 0, scratch, err
	}
	root := t.rootNode()
	if root == nil { // empty pruned tree
		return 0, scratch, ErrNoSample
	}
	if memo != nil && memo.ests == nil {
		memo.ests = make(map[*node][2]float64)
	}
	d := descent{q: q, rng: rng, ops: ops, scratch: scratch, memo: memo}
	x, ok := t.sampleNode(root, &d)
	if !ok {
		return 0, d.scratch, ErrNoSample
	}
	return x, d.scratch, nil
}

// descent is what one root-to-leaf search carries down the recursion.
type descent struct {
	q       *bloom.Filter
	rng     *rand.Rand
	ops     *Ops
	scratch []uint64
	memo    *Memo
}

// sampleNode implements one recursive step of BSTSample. Child pointers
// and filters are loaded once per visit, so a step races a concurrent
// growth publish only by seeing either the old or the new version.
func (t *Tree) sampleNode(n *node, d *descent) (uint64, bool) {
	if d.ops != nil {
		d.ops.NodesVisited++
	}
	left, right := n.children()
	if left == nil && right == nil {
		return t.sampleLeaf(n, d)
	}

	var lEst, rEst float64
	if d.memo == nil {
		lEst, rEst = t.childEstimate(left, d.q, d.ops), t.childEstimate(right, d.q, d.ops)
	} else if est, ok := d.memo.ests[n]; ok {
		lEst, rEst = est[0], est[1]
	} else {
		lEst, rEst = t.childEstimate(left, d.q, d.ops), t.childEstimate(right, d.q, d.ops)
		d.memo.ests[n] = [2]float64{lEst, rEst}
	}
	thr := t.cfg.EmptyThreshold
	lOK, rOK := lEst >= thr, rEst >= thr

	// Both intersections estimated empty: we arrived here on a false
	// positive path; report NULL so the caller backtracks (Algorithm 1
	// lines 17–18).
	if !lOK && !rOK {
		return 0, false
	}

	// Otherwise choose a child with probability proportional to the
	// estimates and fall back to the sibling on failure — even a
	// sub-threshold sibling, exactly as Algorithm 1 lines 21–32 do. The
	// estimator is noisy at leaf scale (§5.6), so a sparse but live
	// branch can estimate to zero; reaching it through backtracking keeps
	// its elements sampleable.
	first, second := left, right
	if p := lEst / (lEst + rEst); d.rng.Float64() >= p {
		first, second = right, left
	}
	if x, ok := t.sampleNode(first, d); ok {
		return x, true
	}
	if d.ops != nil {
		d.ops.Backtracks++
	}
	if second == nil { // pruned tree: missing sibling
		return 0, false
	}
	return t.sampleNode(second, d)
}

// childEstimate returns the estimated intersection size of a child filter
// with the query, treating missing (pruned) children as empty.
func (t *Tree) childEstimate(child *node, q *bloom.Filter, ops *Ops) float64 {
	if child == nil {
		return 0
	}
	if ops != nil {
		ops.Intersections++
	}
	return child.filter().IntersectionEstimate(q)
}

// sampleLeaf brute-force checks the leaf's range against q and picks one
// positive uniformly at random. The positives are collected, ascending, in
// the threaded scratch buffer (so nothing is allocated once it has grown
// to a leaf's worth of hits) and the choice is a reservoir over them in
// that order: one rng.Intn per positive, which is what keeps a draw's rng
// consumption — and so every later draw of the same rng — independent of
// how the scan itself is carried out.
func (t *Tree) sampleLeaf(n *node, d *descent) (uint64, bool) {
	hits := t.positivesInLeaf(n, d.q, d.ops, d.scratch[:0])
	d.scratch = hits
	var chosen uint64
	for i, x := range hits {
		if d.rng.Intn(i+1) == 0 {
			chosen = x
		}
	}
	return chosen, len(hits) > 0
}

// maxScratchK is the largest k for which ScratchHint covers a scan; a
// family with more hash functions grows the buffer once.
const maxScratchK = 16

// ScratchHint is the recommended initial capacity for the scratch buffer
// threaded through SampleScratch: the hits of a leaf plus, for hash
// families that scan in blocks, one block's keys and positions
// (bloom.AppendPositives), so steady-state sampling loops never grow it.
const ScratchHint = bloom.ProbeBlock * (maxScratchK + 2)

// positivesInLeaf appends every element of the leaf range answering
// positively to out, ascending.
func (t *Tree) positivesInLeaf(n *node, q *bloom.Filter, ops *Ops, out []uint64) []uint64 {
	if ops != nil {
		ops.LeavesScanned++
		ops.Memberships += n.hi - n.lo
	}
	return q.AppendPositives(n.lo, n.hi, out)
}
