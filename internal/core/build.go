package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
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
// The top ⌈log₂ GOMAXPROCS⌉ levels fan out (forkLevels): a node there
// builds its left half on a goroutine of its own and its right half on the
// caller's, so up to GOMAXPROCS subtrees are filled at once; below them the
// recursion is serial (at GOMAXPROCS 1, all of it). Each node is the same
// union of the same children either way, so the tree is byte-identical
// whatever GOMAXPROCS is. A pruned tree's build and growth fork by the same
// rule (buildSubtree, growSlot).
func BuildTree(cfg Config) (*Tree, error) {
	t, err := newTree(cfg, false)
	if err != nil {
		return nil, err
	}
	t.publish(&t.root, t.buildFull(0, cfg.Namespace, cfg.Depth, forkLevels()))
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
	for _, id := range occupied {
		if id >= cfg.Namespace {
			return nil, fmt.Errorf("core: occupied id %d outside namespace [0,%d)", id, cfg.Namespace)
		}
	}
	ids := sortIDs(occupied, cfg.Namespace)
	if len(ids) > 0 {
		t.publish(&t.root, t.buildSubtree(0, cfg.Namespace, cfg.Depth, forkFor(len(ids)), ids))
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
	return &Tree{cfg: cfg, fam: fam, pruned: pruned}, nil
}

// forkLevels is the number of top levels a build or a growth forks at,
// ⌈log₂ GOMAXPROCS⌉: enough for every processor to fill a subtree of its
// own, and none at GOMAXPROCS 1.
func forkLevels() int { return bits.Len(uint(runtime.GOMAXPROCS(0) - 1)) }

// forkFor is the fork levels of a pruned build or growth over n ids: a
// batch of fewer than GrowRun ids is built or grown on its caller's
// goroutine alone, so a small write starts no goroutine.
func forkFor(n int) int {
	if n < GrowRun {
		return 0
	}
	return forkLevels()
}

// forkJoin runs left and right and returns once both have: left on a
// goroutine of its own when fork > 0, beside right on the caller's, and
// both on the caller's, left first, otherwise.
func forkJoin(fork int, left, right func()) {
	if fork <= 0 {
		left()
		right()
		return
	}
	done := make(chan struct{})
	go func() {
		left()
		close(done)
	}()
	right()
	<-done
}

// measure returns the number of nodes under n, n included, and the number
// of ids their leaves cover between them.
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

// publish attaches a privately built subtree at slot: it is measured while
// still private, stored, and only then counted into the tree. The ids first:
// they are a price, read when convenient, and the node count is what a
// version's table is validated against, so it must not move before the
// nodes it counts are reachable.
func (t *Tree) publish(slot *atomic.Pointer[node], sub *node) {
	nodes, leafIDs := measure(sub)
	slot.Store(sub)
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
	forkJoin(fork,
		func() { n.left.Store(t.buildFull(lo, mid, depth-1, fork-1)) },
		func() { n.right.Store(t.buildFull(mid, hi, depth-1, fork-1)) })
	n.unite()
	return n
}

// buildSubtree builds a complete private subtree over [lo, hi) holding
// exactly ids (sorted, non-empty), forking its top fork levels as buildFull
// does. The subtree is not yet reachable by readers; the caller measures
// it, publishes it with a single pointer store and only then counts it.
func (t *Tree) buildSubtree(lo, hi uint64, depth, fork int, ids []uint64) *node {
	n := newNode(lo, hi, nil)
	if depth == 0 || hi-lo <= 1 {
		n.setFilter(bloom.NewFromElements(t.fam, ids))
		return n
	}
	mid := split(lo, hi)
	cut := sort.Search(len(ids), func(i int) bool { return ids[i] >= mid })
	forkJoin(fork, func() {
		if cut > 0 {
			n.left.Store(t.buildSubtree(lo, mid, depth-1, fork-1, ids[:cut]))
		}
	}, func() {
		if cut < len(ids) {
			n.right.Store(t.buildSubtree(mid, hi, depth-1, fork-1, ids[cut:]))
		}
	})
	n.unite()
	return n
}

// union returns the children's union (§3.1), the vector every internal
// node holds; in a pruned tree one child may be missing.
func (n *node) union() *bloom.Filter {
	left, right := n.children()
	switch {
	case left == nil:
		return right.filter().Clone()
	case right == nil:
		return left.filter().Clone()
	}
	f, err := left.filter().Union(right.filter())
	if err != nil {
		panic("core: sibling filters incompatible: " + err.Error()) // unreachable
	}
	return f
}

// unite gives an internal node its children's union. buildFull,
// buildSubtree and ReadTree form every internal node with it, and growth
// keeps it so (growNode, growSlot).
func (n *node) unite() { n.setFilter(n.union()) }

// Insert adds one occupied identifier to a pruned tree; see InsertBatch.
func (t *Tree) Insert(x uint64) error { return t.InsertBatch([]uint64{x}) }

// GrowRun bounds the ids InsertBatch walks down the tree at once, and is the
// batch length from which a pruned tree's build or growth forks (forkFor).
// A run's positions are hashed into one buffer (K words an id) that is
// reused from run to run, so a large batch never holds all of its hashes at
// once.
const GrowRun = 4096

// InsertBatch adds occupied identifiers to a pruned tree, growing nodes
// along the root-to-leaf paths as needed (§5.2: "either we need to insert
// this new element into already existing nodes in the tree, or we need to
// create a new node"). The ids are sorted (sortIDs) and grown under the
// tree's one growth lock.
//
// A batch of GrowRun ids or more forks its top ⌈log₂ GOMAXPROCS⌉ levels,
// as BuildTree does (growSlot): a node there grows its left half on a
// goroutine of its own and its right half on the caller's, splitting the
// ids at its midpoint, and then becomes its children's union. Below the
// fork levels, and for a smaller batch from the root, the ids are walked
// down to the leaves a run of at most GrowRun at a time (growRuns). An id
// whose leaf already holds its positions changes no node, so it costs its
// hash, its share of the walk and one test at the leaf (growNode); only
// the others' positions are added to the nodes above. Existing node
// filters are replaced by copy-on-write clones, and missing paths are
// built privately and attached with a single pointer store, so queries
// never block: a concurrent reader sees either the previous or the new
// version of each node. Every node filter shares the tree's one family, so
// each id is hashed once, and its positions ride down its path beside it;
// only an id that opens a new leaf is hashed again, into that leaf. The
// tree is the same node for node whether and however far a batch forked.
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
	sorted := sortIDs(ids, t.cfg.Namespace)
	t.grow.Lock()
	defer t.grow.Unlock()
	t.growSlot(&t.root, 0, t.cfg.Namespace, t.cfg.Depth, forkFor(len(sorted)), sorted)
	t.epoch.Add(1)
	return nil
}

// growSlot grows the subtree at slot (a child slot, or the root's) over
// [lo, hi) by sorted ids. An empty slot gets a complete private subtree,
// published at once (buildSubtree, forking as this would). At a fork level
// an existing node grows its two halves on two goroutines (forkJoin) and,
// once both are done, takes its children's union, publishing a new box
// only if that changed its bits — which keeps the rule boxedFilter.stamp
// promises. Below the fork levels it grows by runs (growRuns).
func (t *Tree) growSlot(slot *atomic.Pointer[node], lo, hi uint64, depth, fork int, ids []uint64) {
	n := slot.Load()
	switch {
	case n == nil:
		t.publish(slot, t.buildSubtree(lo, hi, depth, fork, ids))
		return
	case fork <= 0 || depth == 0 || hi-lo <= 1:
		t.growRuns(n, depth, ids)
		return
	}
	mid := split(lo, hi)
	cut := sort.Search(len(ids), func(i int) bool { return ids[i] >= mid })
	forkJoin(fork, func() {
		if cut > 0 {
			t.growSlot(&n.left, lo, mid, depth-1, fork-1, ids[:cut])
		}
	}, func() {
		if cut < len(ids) {
			t.growSlot(&n.right, mid, hi, depth-1, fork-1, ids[cut:])
		}
	})
	if u := n.union(); !u.Bits().Equal(n.filter().Bits()) {
		n.setFilter(u)
	}
}

// growRuns grows the existing node n (remaining depth `depth`) by sorted
// ids, one walk down to the leaves for each run of at most GrowRun of them,
// their positions hashed into one buffer reused from run to run.
func (t *Tree) growRuns(n *node, depth int, ids []uint64) {
	pos := make([]uint64, 0, min(len(ids), GrowRun)*t.fam.K())
	for start := 0; start < len(ids); start += GrowRun {
		run := ids[start:min(start+GrowRun, len(ids))]
		pos = hashfam.PositionsMany(t.fam, run, pos[:0])
		t.growNode(n, depth, run, pos)
	}
}

// growNode inserts sorted ids into the subtree rooted at the existing node
// n (remaining depth `depth`), leaf first. pos holds the ids' positions
// under the tree's family, K to an id in the ids' order. It returns how
// many of the ids the subtree did not already cover, and moves their
// positions to the front of pos.
//
// Every internal node's bits are exactly its children's union: buildFull,
// buildSubtree and ReadTree form each one so (unite), and this walk keeps
// it. So an id whose positions its leaf already holds
// changes no node on its path, and a leaf keeps only the ids it lacks
// (TestAll). On the way back up a node adds only the kept ids' positions,
// once per run, and publishes a new box only when its bits changed —
// CloneAddPositions hands back the receiver's own bit vector otherwise, and
// a published box is a changed bit vector, which is what boxedFilter.stamp
// promises. A node is published after its children, which no reader can
// tell apart: a version from before the batch holds every earlier id on its
// whole path, and the batch's ids are sampleable as their run publishes
// (through a fork level, once that node's halves are done). (A node
// filter's insertion counter counts only the kept ids; nothing reads it and
// the tree's encoding stores bit vectors alone.)
func (t *Tree) growNode(n *node, depth int, ids, pos []uint64) int {
	k := t.fam.K()
	old, kept := n.filter(), 0
	if depth == 0 || n.hi-n.lo <= 1 {
		for i := range ids {
			if p := pos[i*k : (i+1)*k]; !old.Bits().TestAll(p) {
				copy(pos[kept*k:], p)
				kept++
			}
		}
	} else {
		mid := split(n.lo, n.hi)
		cut := sort.Search(len(ids), func(i int) bool { return ids[i] >= mid })
		if cut > 0 {
			kept = t.growChild(&n.left, n.lo, mid, depth-1, ids[:cut], pos[:cut*k])
		}
		if cut < len(ids) {
			right := t.growChild(&n.right, mid, n.hi, depth-1, ids[cut:], pos[cut*k:])
			copy(pos[kept*k:], pos[cut*k:(cut+right)*k])
			kept += right
		}
	}
	if kept > 0 {
		if next := old.CloneAddPositions(pos[:kept*k]); next.Bits() != old.Bits() {
			n.setFilter(next)
		}
	}
	return kept
}

// growChild grows the child at slot over [lo, hi) and returns growNode's
// count, or, if the slot is empty, builds that node as a complete private
// subtree and publishes it, so readers only ever see fully formed nodes;
// all of its ids count as kept then.
func (t *Tree) growChild(slot *atomic.Pointer[node], lo, hi uint64, depth int, ids, pos []uint64) int {
	if n := slot.Load(); n != nil {
		return t.growNode(n, depth, ids, pos)
	}
	t.publish(slot, t.buildSubtree(lo, hi, depth, 0, ids))
	return len(ids)
}

// radixFrom is the batch length from which sortIDs sorts by radix. A pass
// sums 256 digit counts however few ids it moves, so three passes cost an
// 8-id add ≈ 0.6 µs, ten times a comparison sort; at three passes the two
// meet between 256 and 384 ids.
const radixFrom = 256

// sortIDs returns a sorted copy of ids, every one of them below limit. A
// batch of radixFrom or more is sorted by LSD radix, one pass for each
// 8-bit digit of the bits.Len64(limit−1) bits an id can have.
func sortIDs(ids []uint64, limit uint64) []uint64 {
	out := slices.Clone(ids)
	if len(ids) < radixFrom {
		slices.Sort(out)
		return out
	}
	tmp := make([]uint64, len(ids))
	for shift := 0; shift < bits.Len64(limit-1); shift += 8 {
		var at [256]int
		for _, x := range out {
			at[byte(x>>shift)]++
		}
		sum := 0
		for d, c := range at {
			at[d], sum = sum, sum+c
		}
		for _, x := range out {
			d := byte(x >> shift)
			tmp[at[d]] = x
			at[d]++
		}
		out, tmp = tmp, out
	}
	return out
}
