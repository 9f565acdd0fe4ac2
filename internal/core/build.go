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
// must lie in [0, Namespace). The tree is grown from empty as InsertBatch
// grows one, but the build is no batch: GrowthEpoch stays 0.
func BuildPruned(cfg Config, occupied []uint64) (*Tree, error) {
	t, err := newTree(cfg, true)
	if err != nil {
		return nil, err
	}
	if err := t.insert(occupied); err != nil {
		return nil, err
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

// measure returns the number of nodes under n, n included, the number of
// ids their leaves cover between them and the bytes their filters hold.
func measure(n *node) (nodes, leafIDs, held uint64) {
	if n == nil {
		return 0, 0, 0
	}
	left, right := n.children()
	if left == nil && right == nil {
		return 1, n.hi - n.lo, n.filter().bytes()
	}
	ln, li, lh := measure(left)
	rn, ri, rh := measure(right)
	return 1 + ln + rn, li + ri, n.filter().bytes() + lh + rh
}

// publish attaches a privately built subtree at slot: it is measured while
// still private, stored, and only then counted into the tree. The ids first:
// they are a price, read when convenient, and the node count is what a
// version's table is validated against, so it must not move before the
// nodes it counts are reachable.
func (t *Tree) publish(slot *atomic.Pointer[node], sub *node) {
	nodes, leafIDs, held := measure(sub)
	slot.Store(sub)
	t.held.Add(held)
	t.leafIDs.Add(leafIDs)
	t.nodes.Add(nodes)
}

// replace publishes f as n's filter in place of old, which growth read
// from n, and counts the bytes it adds.
func (t *Tree) replace(n *node, old *nodeFilter, f nodeFilter) {
	n.setFilter(f)
	t.held.Add(f.bytes() - old.bytes()) // a node's bits, and so its bytes, only grow
}

// buildFull recursively builds the complete tree for [lo, hi) with the
// given remaining depth, building the left child concurrently for the top
// fork levels.
func (t *Tree) buildFull(lo, hi uint64, depth, fork int) *node {
	n := newNode(lo, hi)
	if depth == 0 || hi-lo <= 1 {
		f := bloom.New(t.fam)
		var buf []uint64
		for x := lo; x < hi; x++ {
			buf = f.AddScratch(x, buf)
		}
		n.setFilter(t.holdVector(f.Bits()))
		return n
	}
	mid := split(lo, hi)
	forkJoin(fork,
		func() { n.left.Store(t.buildFull(lo, mid, depth-1, fork-1)) },
		func() { n.right.Store(t.buildFull(mid, hi, depth-1, fork-1)) })
	t.unite(n)
	return n
}

// buildSubtree builds a complete private subtree over [lo, hi) holding
// exactly ids (sorted, non-empty), forking its top fork levels as buildFull
// does. The subtree is not yet reachable by readers; the caller measures
// it, publishes it with a single pointer store and only then counts it.
func (t *Tree) buildSubtree(lo, hi uint64, depth, fork int, ids []uint64) *node {
	n := newNode(lo, hi)
	if depth == 0 || hi-lo <= 1 {
		f, _ := t.add(&nodeFilter{}, ids)
		n.setFilter(f)
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
	t.unite(n)
	return n
}

// unite gives an internal node its children's union (union). buildFull,
// buildSubtree and ReadTree form every internal node with it, and growth
// keeps it so (growSlot).
func (t *Tree) unite(n *node) { n.setFilter(t.union(n)) }

// Insert adds one occupied identifier to a pruned tree; see InsertBatch.
func (t *Tree) Insert(x uint64) error { return t.InsertBatch([]uint64{x}) }

// GrowRun is the batch length from which a pruned tree's build or growth
// forks (forkFor), and from which setdb grows a batch's tree beside its
// value build.
const GrowRun = 4096

// InsertBatch adds occupied identifiers to a pruned tree, growing nodes
// along the root-to-leaf paths as needed (§5.2: "either we need to insert
// this new element into already existing nodes in the tree, or we need to
// create a new node"). It works under the tree's one growth lock. The batch
// is every id of every list in sets, taken as the lists come (a database
// batch passes each write's ids as they are): the tree grown is the same
// however the ids are split between lists, and an id may be in several.
//
// An id the tree has grown before costs one bit: the tree's occupancy
// bitmap (Tree.grown) holds every id a batch grew or found covered at its
// leaf, and the batch first drops those (fresh, which range-checks every id
// in its first pass and gathers the rest into one slice of its own),
// since leaf filters only gain bits. Only the rest are sorted (sortIDs) and
// grown, and their bits are set once the walk is done (record). The bitmap
// exists from the first batch after which the tree's filters hold at least
// the bitmap's M/8 bytes between them (MemoryBytes), so it at most doubles
// the tree's memory and a sparse namespace never gets one; an id grown
// before it existed, or before the tree was read back (ReadTree stores no
// bitmap), walks the path once more, changes no node and gets its bit then. A batch whose every id is covered
// sorts and publishes nothing, and allocates nothing once the bitmap holds
// its ids.
//
// The rest are grown in one walk from the root (growSlot): each leaf takes
// its ids, and each internal node above a changed child takes its
// children's union (§3.1), which is what every internal node holds
// (buildFull, buildSubtree and ReadTree form each one so, with unite). A
// node is boxed at most once a batch, and only when its bits changed; a
// sparse node that crosses the rule's line (nodeFilter) is boxed dense in
// the batch that crosses it. A batch of GrowRun ids or more forks its top
// ⌈log₂ GOMAXPROCS⌉ levels, as BuildTree does: a node there grows its left
// half on a goroutine of its own and its right half on the caller's,
// splitting the ids at its midpoint. Existing node filters are replaced by
// copy-on-write clones or fresh position lists, and missing paths are built
// privately and attached with a single pointer store, so queries never
// block: a concurrent reader sees either the previous or the new version of
// each node, and a node is published after its children. The tree is the same node for node whether
// and however far a batch forked.
//
// InsertBatch returns an error on full trees (which already store the
// whole namespace) and on out-of-range ids; on an out-of-range id the
// whole batch is rejected before anything is published.
func (t *Tree) InsertBatch(sets ...[]uint64) error {
	if !t.pruned {
		return fmt.Errorf("core: Insert is only supported on pruned trees")
	}
	if err := t.insert(sets...); err != nil {
		return err
	}
	for _, ids := range sets {
		if len(ids) > 0 {
			t.epoch.Add(1)
			break
		}
	}
	return nil
}

// insert is InsertBatch's body, and BuildPruned's: under the growth lock it
// validates every list and drops the ids the occupancy bitmap holds in one
// pass (fresh), then sorts and grows the rest, and records them.
func (t *Tree) insert(sets ...[]uint64) error {
	t.grow.Lock()
	defer t.grow.Unlock()
	fresh, err := t.fresh(sets)
	if err != nil {
		return err
	}
	if len(fresh) > 0 {
		sorted := sortIDs(fresh, t.cfg.Namespace)
		t.growSlot(&t.root, 0, t.cfg.Namespace, t.cfg.Depth, forkFor(len(sorted)), sorted)
		t.record(sorted)
	}
	return nil
}

// fresh returns, in one slice of its own, the ids of every list whose bits
// the occupancy bitmap lacks: all of them while there is no bitmap, and nil
// when every one is set, so a covered batch allocates nothing. The range
// check rides in its first pass over the ids — the only one while there is
// no bitmap, the count of the fresh ids once there is one, so the slice is
// made at their number — and the first id outside the namespace refuses the
// whole batch before anything is grown or recorded. Called under t.grow.
func (t *Tree) fresh(sets [][]uint64) ([]uint64, error) {
	grown, limit := t.grown, t.cfg.Namespace
	outside := func(x uint64) error { return fmt.Errorf("core: id %d outside namespace [0,%d)", x, limit) }
	n := 0
	for _, ids := range sets {
		n += len(ids)
	}
	if grown == nil {
		out := make([]uint64, 0, n)
		for _, ids := range sets {
			for _, x := range ids {
				if x >= limit {
					return nil, outside(x)
				}
				out = append(out, x)
			}
		}
		return out, nil
	}
	n = 0
	for _, ids := range sets {
		for _, x := range ids {
			if x >= limit {
				return nil, outside(x)
			}
			if grown[x/64]&(1<<(x%64)) == 0 {
				n++
			}
		}
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]uint64, 0, n)
	for _, ids := range sets {
		for _, x := range ids {
			if grown[x/64]&(1<<(x%64)) == 0 {
				out = append(out, x)
			}
		}
	}
	return out, nil
}

// record sets the occupancy bits of ids, which the tree has just grown or
// found covered at their leaves. The bitmap is allocated here, the first
// time the tree's filters hold at least its M/8 bytes between them; until
// then record does nothing. Called under t.grow.
func (t *Tree) record(ids []uint64) {
	if t.grown == nil {
		words := (t.cfg.Namespace-1)/64 + 1
		if t.held.Load() < 8*words {
			return
		}
		t.grown = make([]uint64, words)
		t.grownBytes.Store(8 * words)
	}
	for _, x := range ids {
		t.grown[x/64] |= 1 << (x % 64)
	}
}

// growSlot grows the subtree at slot (a child slot, or the root's) over
// [lo, hi) by sorted ids and reports whether any of its bits changed. It is
// the one growth walk. An empty slot gets a complete private subtree,
// published at once (buildSubtree, forking as this would). A leaf takes the
// ids into a copy of its filter (add: a CloneAdd of a dense vector, which
// shares it when its leaf held every id already, or a fresh position list,
// dense once it reaches the rule's line); only new bits are published. An
// internal node grows its two halves, at a fork level on two goroutines
// (forkJoin), and if either changed takes their union (§3.1), publishing it
// only if that is not the bits it holds. So a node is boxed at most once a
// batch, after its children, and only when its bits changed: the rule
// boxedFilter.stamp promises.
func (t *Tree) growSlot(slot *atomic.Pointer[node], lo, hi uint64, depth, fork int, ids []uint64) bool {
	n := slot.Load()
	if n == nil {
		t.publish(slot, t.buildSubtree(lo, hi, depth, fork, ids))
		return true
	}
	old := n.filter()
	if depth == 0 || hi-lo <= 1 {
		next, changed := t.add(old, ids)
		if changed {
			t.replace(n, old, next)
		}
		return changed
	}
	mid := split(lo, hi)
	cut := sort.Search(len(ids), func(i int) bool { return ids[i] >= mid })
	var left, right bool
	forkJoin(fork, func() {
		left = cut > 0 && t.growSlot(&n.left, lo, mid, depth-1, fork-1, ids[:cut])
	}, func() {
		right = cut < len(ids) && t.growSlot(&n.right, mid, hi, depth-1, fork-1, ids[cut:])
	})
	if !left && !right {
		return false
	}
	u := t.union(n)
	if u.equal(old) {
		return false
	}
	t.replace(n, old, u)
	return true
}

// radixFrom is the batch length from which sortIDs sorts by radix. A pass
// sums 256 digit counts however few ids it moves, so three passes cost an
// 8-id add ≈ 0.6 µs, ten times a comparison sort; at three passes the two
// meet between 256 and 384 ids.
const radixFrom = 256

// sortIDs sorts ids, every one of them below limit, and returns them
// sorted: in ids itself, which it owns and may overwrite, or in a buffer of
// its own. A batch of radixFrom or more is sorted by LSD radix, one pass
// for each 8-bit digit of the bits.Len64(limit−1) bits an id can have.
func sortIDs(ids []uint64, limit uint64) []uint64 {
	out := ids
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
