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
// positive path. At a leaf, a uniform choice among the ids of its range
// that answer membership queries positively is returned: found by probing
// ids drawn at random, and only when those all miss by checking the whole
// range (sampleLeaf).
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
	return t.SampleVersion(q, rng, ops, scratch, nil, nil)
}

// SampleVersion is SampleScratch served from what v — q's version
// (VersionFor), or nil for SampleScratch itself — already knows, adding what
// the draw did to tally (which may be nil) as well as to ops.
//
// A version that holds its positives answers with a uniform pick among them
// (ErrNoSample when there are none): exactly uniform, no estimate read, no id
// tested, counted as Picked. Until then the draw is Algorithm 1's descent
// reading child estimates back from the version's index for the levels it
// covers, and it pays the version the ids it tested at its leaf
// (Version.Pay) — which may be the payment that runs the version's scan. For a given rng state the
// descent returns exactly the id SampleScratch would — same branch rule,
// same backtracking, same rng consumption, and a remembered estimate is the
// float64 that would have been computed — so everything known about the
// draws' distribution carries over; only the intersections drop.
// Intersections counts the estimates this call computed and Remembered the
// ones it read back: Intersections summed over every call ever made on one
// filter version is at most twice the internal nodes the index covers (while
// the tree does not grow), plus what each descent passes below it.
//
// A caller that counts ops keeps the descent it is counting: it reads the
// index, is never served a pick and pays nothing.
func (t *Tree) SampleVersion(q *bloom.Filter, rng *rand.Rand, ops *Ops, scratch []uint64, v *Version, tally *Ops) (uint64, []uint64, error) {
	var served *Version // what may pick and must pay: not a caller who counts
	if ops == nil {
		served = v
	}
	d := descent{q: q, rng: rng, scratch: scratch}
	x, err := t.sampleServed(v, served, &d)
	ops.Add(d.ops)
	tally.Add(d.ops)
	return x, d.scratch, err
}

// sampleServed is SampleVersion's draw on v: a pick when served (v, or nil
// for a caller who counts) holds its positives, otherwise the descent through
// v's index, paying served for the ids it tested.
func (t *Tree) sampleServed(v, served *Version, d *descent) (uint64, error) {
	if p := served.Positives(); p != nil {
		d.ops.Picked++
		if p.Len() == 0 {
			return 0, ErrNoSample
		}
		return p.Select(d.rng.Intn(p.Len())), nil
	}
	if err := t.checkQuery(d.q); err != nil {
		return 0, err
	}
	root := t.rootNode()
	if root == nil { // empty pruned tree
		return 0, ErrNoSample
	}
	d.index = v.Index()
	x, ok := t.sampleNode(root, d)
	served.Pay(d.ops.Memberships)
	if !ok {
		return 0, ErrNoSample
	}
	return x, nil
}

// descent is what one root-to-leaf search carries down the recursion, and
// what it did: ops.Memberships is also what the draw pays its Version.
type descent struct {
	q       *bloom.Filter
	rng     *rand.Rand
	scratch []uint64
	index   *EstimateIndex
	ops     Ops
}

// sampleNode samples from the subtree of the root n.
func (t *Tree) sampleNode(n *node, d *descent) (uint64, bool) { return t.sampleAt(n, 1, d) }

// sampleAt implements one recursive step of BSTSample at n, the node at
// heap position pos (root 1, children 2·pos and 2·pos+1: where the index
// keeps n's pair; only internal nodes look, and theirs cannot overflow).
// Child pointers and filters are loaded once per visit, so a step races a
// concurrent growth publish only by seeing either the old or the new
// version.
func (t *Tree) sampleAt(n *node, pos uint64, d *descent) (uint64, bool) {
	d.ops.NodesVisited++
	left, right := n.children()
	if left == nil && right == nil {
		return t.sampleLeaf(n, d)
	}

	lEst, rEst := t.childEstimates(pos, left, right, d)
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
	first, second, firstPos := left, right, 2*pos
	if p := lEst / (lEst + rEst); d.rng.Float64() >= p {
		first, second, firstPos = right, left, 2*pos+1
	}
	if x, ok := t.sampleAt(first, firstPos, d); ok {
		return x, true
	}
	d.ops.Backtracks++
	if second == nil { // pruned tree: missing sibling
		return 0, false
	}
	return t.sampleAt(second, firstPos^1, d)
}

// childEstimates returns the estimates of the two children of the node at
// heap position pos against the descent's query — from the version's index
// for the levels it covers, computed below it — counting which it was.
func (t *Tree) childEstimates(pos uint64, left, right *node, d *descent) (lEst, rEst float64) {
	compute := func() (float64, float64) {
		return t.childEstimate(left, d.q, &d.ops), t.childEstimate(right, d.q, &d.ops)
	}
	if !d.index.covers(pos) {
		return compute()
	}
	// The stamps are read before anything is computed and filters only move
	// forward, so what is filed under them can describe filters newer than
	// its label — and is then computed once more than needed — never older.
	lEst, rEst, computed := d.index.slots[pos-1].estimates(left.stamp()+right.stamp(), compute)
	if !computed {
		d.ops.Remembered += 2
		if left == nil || right == nil {
			d.ops.Remembered-- // a missing child is not estimated
		}
	}
	return lEst, rEst
}

// childEstimate returns the estimated intersection size of a child filter
// with the query, treating missing (pruned) children as empty.
func (t *Tree) childEstimate(child *node, q *bloom.Filter, ops *Ops) float64 {
	if child == nil {
		return 0
	}
	ops.Intersections++
	return child.filter().estimate(q)
}

// sampleLeaf picks one of the leaf's positives — the ids of its range that
// answer q positively — uniformly at random. It first probes up to
// span/leafProbeShare ids drawn uniformly from the range and returns the
// first that answers positively; only when every probe misses does it scan
// the whole range and choose among the hits. A probe that hits is a
// uniform draw over the range conditioned on being a positive, and the scan
// is reached with a probability that depends on the number of positives
// alone, so both branches, and their mixture, are exactly uniform over the
// positives: what the paper's scan-and-pick leaf (§5.3) returns, for the
// price of the id and not of the leaf. With P positives in a leaf of span
// ids a probe hits with probability P/span, the probes all miss with
// probability ≈ e^(−P/8), and the expected number of membership probes is
//
//	P           0      1     2     5     8     16     32     87
//	÷ span  1.125  1.000  0.89  0.63  0.45  0.19  0.049  0.011
//
// never more than 1.125·span — P = 0, the false-positive leaf that must
// still be proven empty before the search backtracks. The planner sizes a
// leaf to hold dozens of a design-size set's ids (§5.4; 87 of 7 812 on the
// benchmark's batch shape, ≈ 90 probes a draw), and a leaf narrower than
// leafScanBelow is cheaper to scan than to sample at all.
//
// The scan collects its positives, ascending, in the threaded scratch
// buffer (so nothing is allocated once it has grown to a leaf's worth of
// hits) and chooses by a reservoir over them, one rng.Intn per positive.
func (t *Tree) sampleLeaf(n *node, d *descent) (uint64, bool) {
	if span := n.hi - n.lo; span >= leafScanBelow {
		for fired := uint64(1); fired <= span/leafProbeShare; fired++ {
			x := n.lo + uint64(d.rng.Int63n(int64(span)))
			var hit bool
			if hit, d.scratch = d.q.Probe(x, d.scratch); hit {
				d.ops.LeavesScanned++
				d.ops.Memberships += fired
				return x, true
			}
		}
		d.ops.Memberships += span / leafProbeShare
	}
	hits := t.positivesInLeaf(n, d.q, &d.ops, d.scratch[:0])
	d.scratch = hits
	var chosen uint64
	for i, x := range hits {
		if d.rng.Intn(i+1) == 0 {
			chosen = x
		}
	}
	return chosen, len(hits) > 0
}

// The sampled leaf's two constants; sampleLeaf's comment has the cost table
// they were chosen on.
const (
	leafProbeShare = 8  // a leaf of span ids is probed at most span/8 times before it is scanned
	leafScanBelow  = 64 // a narrower leaf is scanned straight away
)

// maxScratchK is the largest k for which ScratchHint covers a scan; a
// family with more hash functions grows the buffer once.
const maxScratchK = 16

// ScratchHint is the recommended initial capacity for the scratch buffer
// threaded through SampleScratch: the hits of a leaf plus, for hash
// families that scan in blocks, one block's keys and positions
// (bloom.AppendPositives), so steady-state sampling loops never grow it.
const ScratchHint = bloom.ProbeBlock * (maxScratchK + 2)

// positivesInLeaf appends every element of the leaf range answering
// positively to out, ascending: the one leaf scan under every search.
func (t *Tree) positivesInLeaf(n *node, q *bloom.Filter, ops *Ops, out []uint64) []uint64 {
	ops.LeavesScanned++
	ops.Memberships += n.hi - n.lo
	return q.AppendPositives(n.lo, n.hi, out)
}
