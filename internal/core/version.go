package core

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/bloom"
)

// Version is what a tree remembers about one immutable version of a query
// filter, for as long as that version lives: it hangs on the filter itself
// (bloom.Filter's derived slot, VersionFor), so there is no table of
// versions, nothing to evict and nothing for a writer to invalidate — a
// write publishes a new filter, which starts without one, and the old one is
// garbage with the version it describes.
//
// It has a cold half and a warm one. Cold, a draw is Algorithm 1's descent
// and what is remembered is estimates: the EstimateIndex. Warm, the version
// holds its Positives too, and a draw is a uniform pick among them.
// SampleVersion is the request served from it. Exact is the table itself, for
// a caller that needs every positive from the first: an exactly uniform
// draw, or a served reconstruction, which is §6's S ∪ S(B) over the leaves
// and so the whole table.
//
// The move from one to the other is ski-rental in the paper's own cost unit
// (§5.4: memberships). Every served draw reports the ids it tested at its
// leaf (Pay); a scan of the leaves tests the ids they hold between them
// (Tree.LeafIDs: the namespace on a full tree, the occupied leaf ranges on a
// pruned one), so that is the price, and the payment that takes the
// version's total past it runs the scan, once, inline, while everyone else
// keeps descending. A version therefore never tests more than twice the ids
// its best offline choice would have: a key written every few draws
// (hundreds of ids tested a version against a price of 10⁵) never scans, a
// read-mostly key always does, and no clock or tunable decides which. A
// caller of Exact pays whatever is left of the price at once. The table is
// kept only if it fits in the bytes of the version's own bit vector (≈ 0.61
// of them at the planned sizes); a filter so full that its positives
// outweigh it declines once and stays on the descent, and each call of
// Exact on it scans.
type Version struct {
	tree *Tree
	q    *bloom.Filter

	index atomic.Pointer[EstimateIndex]
	// rent is the ids served draws have tested at their leaves since the
	// version last had no table.
	rent atomic.Uint64
	// pos is nil while renting, declined after a scan that left nothing to
	// keep, and the table otherwise.
	pos atomic.Pointer[Positives]
	// scanning is held by the version's one scan under way. Pay tries it and
	// keeps descending when it is taken; Exact waits on it.
	scanning sync.Mutex
}

// declined stands in pos for a table that outgrew its version's bytes.
var declined = new(Positives)

// PositivesStats counts, over every version of every filter the tree has
// served, the scans run, those of them that declined (the table outgrew its
// version's bytes), the tables dropped because the tree grew a leaf under
// them, and the bytes of all tables kept.
type PositivesStats struct {
	Scans, Declined, Dropped, PackedBytes uint64
}

// PositivesStats returns the tree's counts.
func (t *Tree) PositivesStats() PositivesStats {
	return PositivesStats{
		Scans:       t.scans.Load(),
		Declined:    t.scansDeclined.Load(),
		Dropped:     t.tablesDropped.Load(),
		PackedBytes: t.packedBytes.Load(),
	}
}

// VersionFor returns what this tree remembers about q, creating and
// attaching it on first use. q must be an immutable filter version: what is
// remembered is only as good as the promise that q's bits no longer change
// (bloom drops it on every in-place mutator, but cannot see a write through
// Bits()). It is nil when q's derived slot is taken by something else —
// another tree's Version included: stamps and leaves are one tree's. Safe
// for concurrent callers, who all get the same value.
func (t *Tree) VersionFor(q *bloom.Filter) *Version {
	d := q.Derived()
	if d == nil {
		d = q.AttachDerived(&Version{tree: t, q: q})
	}
	if v, ok := d.(*Version); ok && v.tree == t {
		return v
	}
	return nil
}

// Index returns the version's estimate index, creating it on first use. Nil
// for a nil version.
func (v *Version) Index() *EstimateIndex {
	if v == nil {
		return nil
	}
	x := v.index.Load()
	if x == nil {
		levels := indexLevels(v.q.SizeBytes(), v.tree.cfg.Depth)
		x = &EstimateIndex{tree: v.tree, slots: make([]indexSlot, 1<<levels-1)}
		if !v.index.CompareAndSwap(nil, x) {
			return v.Index()
		}
	}
	return x
}

// Positives returns the version's table while it is true, nil otherwise (a
// nil version included). What a version answers for depends on the query and
// on which leaves exist, never on a node filter's bits, and a pruned tree
// publishes a leaf before it counts it: a table whose scan began at today's
// node count saw every leaf there is. One that did not is dropped here, and
// the version starts renting again.
func (v *Version) Positives() *Positives {
	if v == nil {
		return nil
	}
	p := v.pos.Load()
	if p == nil || p == declined {
		return nil
	}
	if p.nodes != v.tree.Nodes() {
		v.rent.Store(0)
		if v.pos.CompareAndSwap(p, nil) {
			v.tree.tablesDropped.Add(1)
		}
		return nil
	}
	return p
}

// Pay adds the ids a served draw tested at its leaf to what the version has
// spent without a table, and runs the scan if this payment is the one that
// takes the total past the price. Callers that count Ops neither pay nor are
// served from the table (SampleVersion pays for none of theirs).
func (v *Version) Pay(tested uint64) {
	if v == nil || tested == 0 || v.rent.Add(tested) < v.tree.LeafIDs() ||
		v.pos.Load() != nil || !v.scanning.TryLock() {
		return
	}
	v.scan()
	v.scanning.Unlock()
}

// Exact returns the table an exactly uniform draw from the version picks
// from — Select(rng.Intn(Len())) — and a served reconstruction reads whole
// (AppendAll), whatever the version has paid so far: a
// version still renting pays the rest of the price now and scans, or waits
// for the scan already under way rather than running a second; one whose
// table was dropped because the tree grew a leaf scans again; and one that
// declined scans into a table it hands over and does not keep (so each call
// scans). It never falls back to the descent. Nil for a nil version, and for
// a table past what a block's 32-bit offset can address.
func (v *Version) Exact() *Positives {
	if v == nil {
		return nil
	}
	for {
		if p := v.Positives(); p != nil {
			return p
		}
		if v.pos.Load() == declined {
			return v.tree.scanPositives(v.q, math.MaxUint32)
		}
		v.scanning.Lock()
		v.scan()
		v.scanning.Unlock()
	}
}

// scan runs the version's one scan and leaves the table, or declined, in
// pos — unless a scan that finished since the caller looked has done so. The
// caller holds v.scanning.
func (v *Version) scan() {
	if v.pos.Load() != nil {
		return
	}
	// The version's own bytes, and never more than a block's 32-bit offset
	// can address.
	p := v.tree.scanPositives(v.q, min(v.q.SizeBytes(), math.MaxUint32))
	if p == nil {
		v.tree.scansDeclined.Add(1)
		p = declined
	} else {
		v.tree.packedBytes.Add(p.Bytes())
	}
	v.pos.Store(p)
}

// scanPositives runs one unpruned scan of the leaves and returns the table of
// what q answers for in them, nil if the finished table outgrows budget
// bytes.
func (t *Tree) scanPositives(q *bloom.Filter, budget uint64) *Positives {
	t.scans.Add(1)
	pk := newPositivesPacker(t.Nodes())
	buf := make([]uint64, 0, ScratchHint)
	if !t.packPositives(t.rootNode(), q, pk, budget, &buf) {
		return nil
	}
	if p := pk.finish(); p.Bytes() <= budget {
		return p
	}
	return nil
}
