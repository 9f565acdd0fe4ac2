package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync/atomic"

	"repro/internal/bloom"
	"repro/internal/hashfam"
)

// BuildTree constructs the full BloomSampleTree of Definition 5.1: every
// node stores its entire namespace range. Leaves are filled by element
// insertion; internal filters are formed by unioning children (valid
// because all filters share m and H, §3.1), which is much cheaper than
// re-inserting every element at every level.
//
// The top ⌈log₂ GOMAXPROCS⌉ levels fan out: a node there builds its left
// half on a goroutine of its own and its right half on the caller's, so
// up to GOMAXPROCS subtrees are filled at once; below them the recursion
// is serial (at GOMAXPROCS 1, all of it). Each node is the same union of
// the same children either way, so the tree is byte-identical whatever
// GOMAXPROCS is.
func BuildTree(cfg Config) (*Tree, error) {
	t, err := newTree(cfg, false)
	if err != nil {
		return nil, err
	}
	fork := bits.Len(uint(runtime.GOMAXPROCS(0) - 1))
	root := t.buildFull(0, cfg.Namespace, cfg.Depth, fork)
	t.root.Store(root)
	t.count(measure(root))
	return t, nil
}

// BuildPruned constructs the Pruned-BloomSampleTree of §5.2 over the given
// occupied identifiers: nodes are allocated only for ranges containing at
// least one occupied id, and node filters store only occupied ids. The
// occupied slice need not be sorted; duplicates are tolerated. Every id
// must lie in [0, Namespace).
func BuildPruned(cfg Config, occupied []uint64) (*Tree, error) {
	t, err := newTree(cfg, true)
	if err != nil {
		return nil, err
	}
	ids := make([]uint64, len(occupied))
	copy(ids, occupied)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if id >= cfg.Namespace {
			return nil, fmt.Errorf("core: occupied id %d outside namespace [0,%d)", id, cfg.Namespace)
		}
	}
	if len(ids) > 0 {
		root := t.buildSubtree(0, cfg.Namespace, cfg.Depth, ids)
		t.root.Store(root)
		t.count(measure(root))
	}
	return t, nil
}

func newTree(cfg Config, pruned bool) (*Tree, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	fam, err := hashfam.New(cfg.HashKind, cfg.Bits, cfg.K, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Tree{cfg: cfg, fam: fam, pruned: pruned}
	if pruned {
		t.spineDepth = cfg.Depth
		if t.spineDepth > maxSpineDepth {
			t.spineDepth = maxSpineDepth
		}
		t.stripes = make([]growthStripe, 1<<t.spineDepth)
	}
	return t, nil
}

// measure returns the number of nodes under n, n included, and the number
// of ids their leaves cover between them. It is taken of a subtree while
// that is still private and folded into the tree's counts (count) only once
// the subtree is published, so one discarded after a lost publish race never
// skews them.
func measure(n *node) (nodes, leafIDs uint64) {
	if n == nil {
		return 0, 0
	}
	left, right := n.children()
	if left == nil && right == nil {
		return 1, n.hi - n.lo
	}
	ln, li := measure(left)
	rn, ri := measure(right)
	return 1 + ln + rn, li + ri
}

// count folds a published subtree's measure into the tree's. The ids first:
// they are a price, read when convenient, and the node count is what a
// version's table is validated against.
func (t *Tree) count(nodes, leafIDs uint64) {
	t.leafIDs.Add(leafIDs)
	t.nodes.Add(nodes)
}

// buildFull recursively builds the complete tree for [lo, hi) with the
// given remaining depth, building the left child concurrently for the top
// fork levels.
func (t *Tree) buildFull(lo, hi uint64, depth, fork int) *node {
	n := newNode(lo, hi, nil)
	if depth == 0 || hi-lo <= 1 {
		f := bloom.New(t.fam)
		var buf []uint64
		for x := lo; x < hi; x++ {
			buf = f.AddScratch(x, buf)
		}
		n.setFilter(f)
		return n
	}
	mid := split(lo, hi)
	var left, right *node
	if fork > 0 {
		done := make(chan struct{})
		go func() {
			left = t.buildFull(lo, mid, depth-1, fork-1)
			close(done)
		}()
		right = t.buildFull(mid, hi, depth-1, fork-1)
		<-done
	} else {
		left = t.buildFull(lo, mid, depth-1, 0)
		right = t.buildFull(mid, hi, depth-1, 0)
	}
	n.left.Store(left)
	n.right.Store(right)
	f, err := left.filter().Union(right.filter())
	if err != nil {
		panic("core: sibling filters incompatible: " + err.Error()) // unreachable
	}
	n.setFilter(f)
	return n
}

// buildSubtree builds a complete private subtree over [lo, hi) holding
// exactly ids (sorted, non-empty). The subtree is not yet reachable by
// readers; the caller measures it, publishes it with a single pointer store
// and only then counts it.
func (t *Tree) buildSubtree(lo, hi uint64, depth int, ids []uint64) *node {
	n := newNode(lo, hi, nil)
	if depth == 0 || hi-lo <= 1 {
		n.setFilter(bloom.NewFromElements(t.fam, ids))
		return n
	}
	mid := split(lo, hi)
	cut := sort.Search(len(ids), func(i int) bool { return ids[i] >= mid })
	var lf, rf *bloom.Filter
	if cut > 0 {
		child := t.buildSubtree(lo, mid, depth-1, ids[:cut])
		n.left.Store(child)
		lf = child.filter()
	}
	if cut < len(ids) {
		child := t.buildSubtree(mid, hi, depth-1, ids[cut:])
		n.right.Store(child)
		rf = child.filter()
	}
	switch {
	case lf == nil:
		n.setFilter(rf.Clone())
	case rf == nil:
		n.setFilter(lf.Clone())
	default:
		f, err := lf.Union(rf)
		if err != nil {
			panic("core: sibling filters incompatible: " + err.Error()) // unreachable
		}
		n.setFilter(f)
	}
	return n
}

// stripeOf maps an id to the index of the subtree (stripe) that owns it,
// by following the first spineDepth midpoint splits.
func (t *Tree) stripeOf(x uint64) int {
	lo, hi := uint64(0), t.cfg.Namespace
	idx := 0
	for d := 0; d < t.spineDepth; d++ {
		mid := split(lo, hi)
		idx <<= 1
		if x >= mid {
			idx |= 1
			lo = mid
		} else {
			hi = mid
		}
	}
	return idx
}

// Insert adds one occupied identifier to a pruned tree; see InsertBatch.
func (t *Tree) Insert(x uint64) error { return t.InsertBatch([]uint64{x}) }

// InsertBatch adds occupied identifiers to a pruned tree, growing nodes
// along the root-to-leaf paths as needed (§5.2: "either we need to insert
// this new element into already existing nodes in the tree, or we need to
// create a new node"). The ids are grouped by subtree and each group is
// published as one epoch under its subtree's stripe lock, so batches
// touching different subtrees proceed in parallel; existing node filters
// are replaced by copy-on-write clones (spine nodes via compare-and-swap,
// since several stripes share them), and missing paths are built privately
// and attached with a single pointer store. Queries therefore never block:
// a concurrent reader sees either the previous or the new version of each
// node. The cost per id is proportional to the height of the tree plus
// one filter copy per path node (amortized across the batch). Every node
// filter shares the tree's one family, so each id is hashed once, here,
// and its positions ride down its path beside it (growNode); only an id
// that opens a new leaf is hashed again, into that leaf.
//
// InsertBatch returns an error on full trees (which already store the
// whole namespace) and on out-of-range ids; on an out-of-range id the
// whole batch is rejected before anything is published.
func (t *Tree) InsertBatch(ids []uint64) error {
	if !t.pruned {
		return fmt.Errorf("core: Insert is only supported on pruned trees")
	}
	for _, x := range ids {
		if x >= t.cfg.Namespace {
			return fmt.Errorf("core: id %d outside namespace [0,%d)", x, t.cfg.Namespace)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	sorted := make([]uint64, len(ids))
	copy(sorted, ids)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var pos []uint64 // one stripe's positions at a time, in one buffer
	// Stripe intervals partition the namespace in order, so sorted ids
	// fall into contiguous runs of equal stripe.
	for start := 0; start < len(sorted); {
		stripe := t.stripeOf(sorted[start])
		end := start + 1
		for end < len(sorted) && t.stripeOf(sorted[end]) == stripe {
			end++
		}
		pos = hashfam.PositionsMany(t.fam, sorted[start:end], pos[:0])
		s := &t.stripes[stripe]
		s.mu.Lock()
		t.growRoot(sorted[start:end], pos)
		s.epoch.Add(1)
		s.mu.Unlock()
		start = end
	}
	return nil
}

// growRoot inserts one stripe's sorted ids starting at the root, creating
// it if the tree is still empty. pos holds the ids' positions under the
// tree's family, K to an id in the ids' order, here and all the way down.
func (t *Tree) growRoot(ids, pos []uint64) {
	for {
		root := t.root.Load()
		if root != nil {
			t.growNode(root, t.cfg.Depth, ids, pos)
			return
		}
		sub := t.buildSubtree(0, t.cfg.Namespace, t.cfg.Depth, ids)
		nodes, leafIDs := measure(sub)
		if t.root.CompareAndSwap(nil, sub) {
			t.count(nodes, leafIDs)
			return
		}
		// Another stripe published the first root; retry against it.
	}
}

// growNode inserts sorted ids into the subtree rooted at the existing
// node n (remaining depth `depth`), publishing copy-on-write filters. A
// node whose filter already answers positively for every id publishes
// nothing — CloneAddPositions hands back the receiver's own bit vector then,
// and that is the test used, so no id is probed twice to find out: on a
// saturated tree an insert replaces no box at all, and a published box is a
// changed bit vector, which is what boxedFilter.stamp promises. (A node
// filter's insertion counter therefore counts only the batches that changed
// it; nothing reads it and the tree's encoding stores bit vectors alone.
// GrowthEpoch still advances per batch.)
// The children are visited either way: an id can be a false positive here
// and still be missing below.
func (t *Tree) growNode(n *node, depth int, ids, pos []uint64) {
	for {
		old := n.f.Load()
		next := old.f.CloneAddPositions(pos)
		if next.Bits() == old.f.Bits() {
			break
		}
		if n.f.CompareAndSwap(old, box(next)) {
			break
		}
		// CAS failure: a writer of another stripe updated this shared
		// spine node between our load and swap; redo against its filter.
	}
	if depth == 0 || n.hi-n.lo <= 1 {
		return
	}
	mid := split(n.lo, n.hi)
	cut := sort.Search(len(ids), func(i int) bool { return ids[i] >= mid })
	k := t.fam.K()
	if cut > 0 {
		t.growChild(&n.left, n.lo, mid, depth-1, ids[:cut], pos[:cut*k])
	}
	if cut < len(ids) {
		t.growChild(&n.right, mid, n.hi, depth-1, ids[cut:], pos[cut*k:])
	}
}

// growChild descends into (or creates) one child slot. A missing child is
// built as a complete private subtree and attached with a single
// compare-and-swap, so readers only ever see fully formed nodes; losing
// the swap (another stripe created the shared child first) discards the
// private subtree and merges into the published one instead.
func (t *Tree) growChild(slot *atomic.Pointer[node], lo, hi uint64, depth int, ids, pos []uint64) {
	for {
		if child := slot.Load(); child != nil {
			t.growNode(child, depth, ids, pos)
			return
		}
		sub := t.buildSubtree(lo, hi, depth, ids)
		nodes, leafIDs := measure(sub)
		if slot.CompareAndSwap(nil, sub) {
			t.count(nodes, leafIDs)
			return
		}
	}
}
