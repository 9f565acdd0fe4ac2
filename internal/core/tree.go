// Package core implements the paper's primary contribution: the
// BloomSampleTree (§5) and its Pruned variant (§5.2, §8), with the
// BSTSample sampling algorithm (Algorithm 1), single-pass multi-item
// sampling (§5.3), set reconstruction (§6), empty-intersection
// thresholding (§5.6), and the cost-model-driven choice of the leaf range
// M⊥ (§5.4).
//
// A tree node is a Bloom filter's bits (§5.1), held in one of two forms
// (nodeFilter): the ascending positions of its set bits, coded about a
// byte each, while it has fewer of them than two a word of its dense
// vector (2·m/64), the dense *bloom.Filter otherwise. So a pruned tree's
// memory follows its occupancy (§5.2, §8): a leaf 1 % full takes about a
// ninth of its vector's bytes. The tree stores ranges of the namespace and
// never deletes from them, and every estimate and verdict of a descent is
// the one the dense vector gives, whichever form the node is in. The
// backend contract of internal/membership is for the sets a database
// stores, and this package does not import it (a test keeps it so).
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/bloom"
	"repro/internal/hashfam"
)

// DefaultEmptyThreshold is the default estimated-intersection size below
// which an intersection is treated as empty (§5.6). A single spurious set
// bit yields a small but non-zero estimate; 0.5 prunes those while keeping
// any branch estimated to hold at least one element.
const DefaultEmptyThreshold = 0.5

// Config describes a BloomSampleTree. The Bloom-filter parameters (Bits,
// K, HashKind, Seed) must match the query Bloom filters the tree will be
// used with (§5.1).
type Config struct {
	// Namespace is the size M of the namespace [0, M).
	Namespace uint64
	// Bits is the Bloom-filter size m used at every node.
	Bits uint64
	// K is the number of hash functions.
	K int
	// HashKind selects the hash family (default hashfam.DefaultKind, which
	// is fast).
	HashKind hashfam.Kind
	// Seed derives the hash functions deterministically.
	Seed uint64
	// Depth is the number of times the namespace is halved; leaves cover
	// ranges of about Namespace/2^Depth elements (M⊥ in the paper). Use
	// PlanTree to derive it from the cost model of §5.4.
	Depth int
	// EmptyThreshold is the estimated-intersection size below which a
	// branch is pruned (§5.6); 0 means DefaultEmptyThreshold.
	EmptyThreshold float64
}

// maxK bounds Config.K. A config can come from a file or a socket (ReadTree,
// setdb's loader through Open), and a hash family may allocate per function,
// so k must not be the stream's to choose freely. The optimal k is
// log₂(1/FP rate): 64 functions already plan for a false-positive rate below
// 2⁻⁶⁴, which no namespace of 64-bit ids can tell from zero, and every caller
// in the repository uses 3.
const maxK = 64

// maxBits bounds Config.Bits: a sparse node holds its set positions, each
// below m, as uint32s (nodeFilter).
const maxBits = 1 << 32

func (c *Config) validate() error {
	if c.Namespace < 2 {
		return fmt.Errorf("core: namespace size %d too small", c.Namespace)
	}
	if c.Bits < 2 {
		return fmt.Errorf("core: filter size %d too small", c.Bits)
	}
	if c.Bits > maxBits {
		return fmt.Errorf("core: filter size %d, need at most %d", c.Bits, uint64(maxBits))
	}
	if c.K < 1 || c.K > maxK {
		return fmt.Errorf("core: k = %d, need 1 <= k <= %d", c.K, maxK)
	}
	if c.Depth < 0 {
		return fmt.Errorf("core: depth = %d, need depth >= 0", c.Depth)
	}
	if maxDepth := int(math.Ceil(math.Log2(float64(c.Namespace)))); c.Depth > maxDepth {
		return fmt.Errorf("core: depth %d exceeds log2(M) = %d", c.Depth, maxDepth)
	}
	if c.EmptyThreshold < 0 {
		return fmt.Errorf("core: negative empty threshold %v", c.EmptyThreshold)
	}
	return nil
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.HashKind == "" {
		out.HashKind = hashfam.DefaultKind
	}
	if out.EmptyThreshold == 0 {
		out.EmptyThreshold = DefaultEmptyThreshold
	}
	return out
}

// node is one BloomSampleTree node covering the namespace range [lo, hi).
// In a pruned tree, children covering unoccupied ranges are nil.
//
// The filter and child pointers are atomic so that pruned-tree growth can
// publish copy-on-write updates (a fresh immutable node filter, or a fully
// built private subtree) with single stores while readers traverse
// lock-free. Filters reachable from a node are immutable: growth swaps
// the pointer to a new one instead of mutating in place. lo and hi never
// change after the node is created.
type node struct {
	lo, hi      uint64
	f           atomic.Pointer[boxedFilter]
	left, right atomic.Pointer[node]
}

// boxedFilter is a node's filter with its stamp: boxing happens only on
// publish (rare) while reads pay one extra dereference.
//
// stamp names the bits inside: a serial drawn once per box, larger than
// that of any box made before it, and growth publishes a new box only when
// bits changed (growSlot) — a sparse node that reaches the dense form does
// so in the box of the batch that took it there. So a node's stamp grows
// exactly when its bits do, and two loads of a node that read the same
// stamp read the same bits: what an EstimateIndex files a remembered
// estimate under. A serial rather than the bits' address, which would do
// for the comparison, because whoever remembers an address keeps a
// superseded vector alive, and because a serial has an order (indexSlot
// relies on it).
type boxedFilter struct {
	f     nodeFilter
	stamp uint64
}

// filterStamps issues boxedFilter stamps; 0 is never issued and stands for
// "no child". One counter serves every tree: all that is asked of a stamp is
// that it grows, and threading a tree through every filter publish to keep
// one each would buy nothing.
var filterStamps atomic.Uint64

// newNode returns a node over [lo, hi) without a filter yet: it is built
// privately and given one (setFilter) before it is published.
func newNode(lo, hi uint64) *node { return &node{lo: lo, hi: hi} }

// filter returns the node's current (immutable) filter.
func (n *node) filter() *nodeFilter { return &n.f.Load().f }

// stamp returns the stamp of the node's current filter, 0 for a missing
// (pruned) child.
func (n *node) stamp() uint64 {
	if n == nil {
		return 0
	}
	return n.f.Load().stamp
}

// setFilter publishes a new filter for the node.
func (n *node) setFilter(f nodeFilter) {
	n.f.Store(&boxedFilter{f: f, stamp: filterStamps.Add(1)})
}

// children loads both child pointers once; traversals load them into
// locals so one visit sees one consistent pair (a node with neither
// child is a leaf).
func (n *node) children() (left, right *node) { return n.left.Load(), n.right.Load() }

// Tree is a BloomSampleTree: a complete binary tree over the namespace
// with a Bloom filter per node, where each node's filter stores the
// elements of its range (full tree) or the occupied elements of its range
// (pruned tree). Build once, query many times (§5).
//
// Sample, SampleN and Reconstruct are read-only on the tree and on the
// query filter, so any number of goroutines may call them
// concurrently — even sharing a single query Filter — as long as each
// goroutine owns its rand source and Ops accumulator.
//
// Pruned trees also grow while they are read: Insert/InsertBatch take the
// tree's one growth lock, so writers run one at a time, and publish
// copy-on-write filter swaps and privately built subtrees through the
// nodes' atomic pointers with single stores, so queries take no lock and
// never wait on a writer. A query racing a growth batch sees the tree
// somewhere between the two versions (filters only ever gain bits, so
// previously visible elements never disappear); ids being inserted become
// sampleable once every node on their path has published, children before
// parents (a large batch grows its top levels' halves on goroutines of its
// own; see InsertBatch).
type Tree struct {
	cfg    Config
	fam    hashfam.Family
	root   atomic.Pointer[node]
	pruned bool
	nodes  atomic.Uint64 // number of allocated (published) nodes
	// leafIDs is the number of ids the published leaves cover between them:
	// what one scan of the leaves tests (see LeafIDs).
	leafIDs atomic.Uint64
	// held is the bytes the published nodes' filters hold (see MemoryBytes).
	held atomic.Uint64
	// scratch pools growth's work space for sparse nodes: all-zero
	// vectors of m bits' words, in which their positions are united
	// (uniteIn, union).
	scratch sync.Pool

	// grow serializes the writers of a pruned tree (a full tree is
	// immutable after construction); epoch counts the batches they grew.
	grow  sync.Mutex
	epoch atomic.Uint64
	// grown is the pruned tree's occupancy bitmap, one bit per namespace
	// id, set for every id a batch (or BuildPruned) grew or found covered
	// at its leaf: leaf filters only gain bits, so such an id never needs
	// growing again. It is read and written under grow only, and nil until
	// the first batch after which the filters hold at least its M/8 bytes
	// between them (record), so it at most doubles the tree's memory.
	// grownBytes is its size, for MemoryBytes, which takes no lock.
	grown      []uint64
	grownBytes atomic.Uint64

	// What the versions of the filters served have done between them; see
	// PositivesStats.
	scans, scansDeclined, tablesDropped, packedBytes atomic.Uint64
}

// rootNode returns the current root (nil for an empty pruned tree).
func (t *Tree) rootNode() *node { return t.root.Load() }

// Config returns the configuration the tree was built with.
func (t *Tree) Config() Config { return t.cfg }

// Family returns the hash family shared by all node filters; query filters
// must be built with the same family (use NewQueryFilter).
func (t *Tree) Family() hashfam.Family { return t.fam }

// Namespace returns the namespace size M.
func (t *Tree) Namespace() uint64 { return t.cfg.Namespace }

// Depth returns the number of halvings between the root and the leaves.
func (t *Tree) Depth() int { return t.cfg.Depth }

// LeafRange returns the maximum number of namespace elements a leaf covers
// (M⊥ in the paper).
func (t *Tree) LeafRange() uint64 {
	r := t.cfg.Namespace
	for i := 0; i < t.cfg.Depth; i++ {
		r = (r + 1) / 2
	}
	return r
}

// Pruned reports whether the tree was built in pruned (occupancy-aware)
// mode.
func (t *Tree) Pruned() bool { return t.pruned }

// Nodes returns the number of allocated tree nodes. For a full tree this
// is 2^(Depth+1) − 1; a pruned tree allocates only nodes whose range is
// occupied.
func (t *Tree) Nodes() uint64 { return t.nodes.Load() }

// LeafIDs returns the number of namespace ids the tree's leaves cover
// between them: the whole namespace for a full tree, the occupied leaf
// ranges for a pruned one. It is what a scan of every leaf tests, and so the
// price a filter version pays before it runs one (Version.Pay).
func (t *Tree) LeafIDs() uint64 { return t.leafIDs.Load() }

// MemoryBytes returns the bytes the node filters hold — the quantity
// reported in the paper's memory tables (Tables 2–3, Fig. 14): m/8 for a
// node held as its dense vector, its code's bytes (about one a set bit) for
// one held as its positions (nodeFilter) — plus a grown pruned tree's
// occupancy bitmap (M/8 bytes, once its filters hold at least as many
// bytes; see InsertBatch).
func (t *Tree) MemoryBytes() uint64 { return t.held.Load() + t.grownBytes.Load() }

// GrowthEpoch returns the number of non-empty insert batches a pruned tree
// has grown by (0 for full trees). It is the operator's signal that the
// tree is still growing; nothing is validated against it: an EstimateIndex
// checks each pair against the stamps of the two child filters it was
// computed from, and a version's Positives are checked against Nodes().
func (t *Tree) GrowthEpoch() uint64 { return t.epoch.Load() }

// NewQueryFilter returns an empty Bloom filter compatible with the tree
// (same m, k, family and seed), ready to receive a query set.
func (t *Tree) NewQueryFilter() *bloom.Filter { return bloom.New(t.fam) }

// checkQuery validates that q was built with the tree's parameters. It
// compares parameters directly (no probe filter is allocated), so it is
// free on the per-query hot path.
func (t *Tree) checkQuery(q *bloom.Filter) error {
	return q.MatchesFamily(t.fam)
}

// Ops counts the operations a sampling or reconstruction call performed;
// these are the metrics of the paper's Figures 3–4 and 8–10. It is the one
// tally of what a draw or a walk did: every call counts into an Ops of its
// own and adds it to the caller's once. Pass nil to skip counting.
type Ops struct {
	// Intersections counts Bloom-filter intersection-size estimations
	// computed (one per child filter examined at an internal node).
	Intersections uint64
	// Memberships counts the membership probes actually fired at the query
	// filter: a leaf's whole range where it is scanned (SampleN,
	// Reconstruct, a draw's fallback), the ids tried where a draw samples
	// it.
	Memberships uint64
	// NodesVisited counts tree nodes entered.
	NodesVisited uint64
	// LeavesScanned counts the leaves a search entered, whether it went on
	// to scan the whole range or found its id by sampling it.
	LeavesScanned uint64
	// Backtracks counts the times the search exhausted one child and
	// re-descended into the sibling (§5.3's false-positive paths).
	Backtracks uint64
	// Remembered counts the estimates SampleVersion read back from its
	// version's EstimateIndex instead of computing them.
	Remembered uint64
	// Picked counts the draws SampleVersion served as picks from its
	// version's Positives: they read no estimate and tested no id.
	Picked uint64
}

// Add accumulates o2 into o; a nil o counts nothing.
func (o *Ops) Add(o2 Ops) {
	if o == nil {
		return
	}
	o.Intersections += o2.Intersections
	o.Memberships += o2.Memberships
	o.NodesVisited += o2.NodesVisited
	o.LeavesScanned += o2.LeavesScanned
	o.Backtracks += o2.Backtracks
	o.Remembered += o2.Remembered
	o.Picked += o2.Picked
}

func (o *Ops) String() string {
	return fmt.Sprintf("intersections=%d memberships=%d nodes=%d leaves=%d backtracks=%d remembered=%d picked=%d",
		o.Intersections, o.Memberships, o.NodesVisited, o.LeavesScanned, o.Backtracks, o.Remembered, o.Picked)
}

// split returns the midpoint used to halve [lo, hi).
func split(lo, hi uint64) uint64 { return lo + (hi-lo+1)/2 }
