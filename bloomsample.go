// Package bloomsample is a Go implementation of "Sampling and
// Reconstruction Using Bloom Filters" (Sengupta, Bagchi, Bedathur,
// Ramanath; ICDE 2017): it answers the two questions the paper poses —
// how to draw a near-uniform random sample from a set stored in a Bloom
// filter, and how to reconstruct that set — without inverting the hash
// functions and without scanning the whole namespace.
//
// The central structure is the BloomSampleTree: a complete binary tree
// over the namespace with a Bloom filter per node, built once and used for
// any number of query filters that share the same parameters. Sampling
// descends the tree guided by intersection-size estimates; reconstruction
// prunes subtrees with empty intersections. For sparse namespaces the
// Pruned variant allocates only occupied subtrees and can grow
// dynamically.
//
// # Concurrency
//
// The whole query side is wait-free and safe for unsynchronized
// concurrent use: Filter.Contains and the estimators are read-only (hash
// position buffers are pooled, not per-filter), and Tree.Sample /
// Tree.SampleN / Tree.Reconstruct only read immutable node filters — any
// number of goroutines may query one tree, even sharing a single query
// Filter, as long as each owns its rand source and Ops accumulator.
// Writes are copy-on-write: a pruned Tree grows (Insert/InsertBatch)
// by publishing fresh immutable filters and privately built subtrees
// through atomic pointers, with writers serialized by the tree's one
// growth lock — so queries never wait on growth. Mutating a raw Filter in place (Add)
// still requires external synchronization; prefer Filter.CloneAdd,
// which returns a new immutable version. SetDB composes all of this:
// its keyed sets are immutable values in one sync.Map, every read loads
// one without a lock, writers serialize on one mutex, and a batch
// (SetDB.SampleMany) draws on its caller's goroutine, so concurrent
// callers are what runs in parallel. What a tree remembers about one
// immutable filter version (Tree.VersionFor: its estimate index, and the packed
// positives an exactly uniform draw picks from, Version.Exact) hangs on the
// filter, is built once however many goroutines ask, and is read without a
// lock.
//
// Quick start:
//
//	plan, _ := bloomsample.Plan(0.9, 1000, 1_000_000, 3)        // accuracy, |set|, |namespace|, k
//	tree, _ := bloomsample.NewTreeWith(plan, bloomsample.WithSeed(42))
//	q := tree.NewQueryFilter()
//	q.Add(123); q.Add(456)                                       // store a set
//	x, _ := tree.Sample(q, rng, nil)                             // draw a sample
//	set, _ := tree.Reconstruct(q, bloomsample.PruneByEstimate, nil)
//
// Construction is options-based (see Option and the With* functions):
// databases open with Open(namespace, ...Option), which plans the
// filter profile from WithAccuracy. A deletable set is a counting Bloom
// filter.
//
// The two baselines the paper compares against (DictionaryAttack and
// HashInvert) are exported for benchmarking and for the niches where they
// win (tiny namespaces; invertible hashes with very sparse or very dense
// filters).
package bloomsample

import (
	"io"

	"repro/internal/baseline"
	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/hashfam"
	"repro/internal/setdb"
)

// Filter is a Bloom filter over uint64 elements supporting membership,
// union, intersection and the cardinality estimators the sampler uses.
type Filter = bloom.Filter

// Tree is a BloomSampleTree (full or pruned).
type Tree = core.Tree

// TreeConfig configures a tree build; prefer deriving it via Plan +
// Plan.TreeConfig.
type TreeConfig = core.Config

// TreePlan is the outcome of accuracy-driven parameter planning (§5.4 of
// the paper): Bloom-filter size, false-positive rate, tree depth and leaf
// range.
type TreePlan = core.Plan

// Ops counts the Bloom-filter operations an algorithm performed.
type Ops = core.Ops

// PruneRule selects the reconstruction pruning strategy.
type PruneRule = core.PruneRule

// Reconstruction pruning strategies for a library walk (Tree.Reconstruct):
// PruneByEstimate is the paper's thresholding heuristic (§5.6: fast, and it
// can lose members, most of all of a set below its design size);
// PruneByAndBits prunes only provably-empty branches (perfect recall,
// slower). The server uses neither: a served reconstruction is the filter
// version's whole table of positives.
const (
	PruneByEstimate = core.PruneByEstimate
	PruneByAndBits  = core.PruneByAndBits
)

// HashKind identifies a hash-function family.
type HashKind = hashfam.Kind

// Available hash families. Fast — one 128-bit multiply-fold mix per key,
// split into k positions by double hashing — is the recommended default
// and what every layer defaults to; Simple is weakly invertible (required
// by HashInvert); Murmur3 is the previous default, kept byte-compatible;
// MD5 is slow and present for parity with the paper's evaluation.
const (
	Fast    = hashfam.KindFast
	Simple  = hashfam.KindSimple
	Murmur3 = hashfam.KindMurmur3
	MD5     = hashfam.KindMD5
)

// ErrNoSample is returned by Tree.Sample when no element of the namespace
// answers the query filter positively along any explored path.
var ErrNoSample = core.ErrNoSample

// Plan sizes a Bloom filter and a BloomSampleTree for the desired sampling
// accuracy (the fraction of sampling outcomes that are true set elements),
// a design query-set size n, a namespace of size M, and k hash functions.
// Accuracies above 0.99 are capped (an exact 1.0 needs an infinite
// filter). The cost ratio between intersections and membership queries is
// taken from the built-in model; use PlanWithCostRatio with a
// CalibrateCosts measurement for machine-specific planning.
func Plan(accuracy float64, n, M uint64, k int) (TreePlan, error) {
	return core.PlanTree(accuracy, n, M, k, 0)
}

// PlanWithCostRatio is Plan with an explicit intersection/membership cost
// ratio (see CalibrateCosts).
func PlanWithCostRatio(accuracy float64, n, M uint64, k int, costRatio float64) (TreePlan, error) {
	return core.PlanTree(accuracy, n, M, k, costRatio)
}

// CostEstimate holds measured per-operation costs.
type CostEstimate = core.CostEstimate

// CalibrateCosts measures membership and intersection costs for the given
// filter parameters on this machine; its Ratio feeds PlanWithCostRatio.
func CalibrateCosts(kind HashKind, m uint64, k int, iters int) (CostEstimate, error) {
	return core.CalibrateCosts(kind, m, k, iters)
}

// NewTreeFromConfig builds a full tree from an explicit configuration,
// bypassing planning.
func NewTreeFromConfig(cfg TreeConfig) (*Tree, error) { return core.BuildTree(cfg) }

// NewPrunedTreeFromConfig builds a pruned tree from an explicit
// configuration.
func NewPrunedTreeFromConfig(cfg TreeConfig, occupied []uint64) (*Tree, error) {
	return core.BuildPruned(cfg, occupied)
}

// DictionaryAttack is the brute-force baseline: O(M) membership queries
// per sample or reconstruction, but exactly uniform samples.
type DictionaryAttack = baseline.DictionaryAttack

// HashInvert is the invertible-hash baseline: it enumerates candidate
// preimages of filter bits. Requires the Simple hash family.
type HashInvert = baseline.HashInvert

// Estimators re-exported for downstream use.

// FalsePositiveRate returns (1−e^{−kn/m})^k.
func FalsePositiveRate(m uint64, k int, n uint64) float64 {
	return bloom.FalsePositiveRate(m, k, n)
}

// Accuracy returns n / (n + (M−n)·fp), the paper's sampling-accuracy
// measure.
func Accuracy(n, M uint64, fp float64) float64 { return bloom.Accuracy(n, M, fp) }

// EstimateIntersection returns the Papapetrou et al. estimate of the
// intersection size of the sets stored in two compatible filters.
func EstimateIntersection(a, b *Filter) float64 { return bloom.EstimateIntersectionOf(a, b) }

// FalseSetOverlapProb returns Eq. (1) of the paper: the probability that
// the AND of two filters storing disjoint sets of sizes n1 and n2 is
// non-empty.
func FalseSetOverlapProb(m uint64, k int, n1, n2 uint64) float64 {
	return bloom.FalseSetOverlapProb(m, k, n1, n2)
}

// SetDB is a keyed database of sets stored only as Bloom filters over a
// shared namespace and BloomSampleTree — the paper's §3.2 framework. It
// supports per-key sampling and reconstruction and persists to a single
// file. SetDB is safe for concurrent use with a lock-free read path:
// queries load a key's immutable value from one sync.Map and take no
// lock of the database's, so concurrent Sample/Contains/Reconstruct calls
// — even on the same key, even racing writers — never serialize. SampleMany
// draws a batch on its caller's goroutine; to reconstruct every set, loop
// Keys over Reconstruct.
type SetDB = setdb.DB

// SetDBOptions is the profile a SetDB was opened with, as SetDB.Options
// reports it; Open plans one from its With* options.
type SetDBOptions = setdb.Options

// SetDBWrite is one pending mutation for SetDB's batch write path
// (SetDB.AddMany/ApplyBatch): a whole batch grows the tree once and takes
// the writer lock once, all-or-nothing.
type SetDBWrite = setdb.Write

// LoadSetDB reads a database from the one file a database has: the bundle
// (*SetDB).Save writes, a running bstserved hands out at GET /v1/snapshot and
// a durability directory keeps as its newest snap-*.snap. A pruned database's
// tree is in the file, so nothing but the path is needed.
func LoadSetDB(path string) (*SetDB, error) { return setdb.Load(path) }

// UnmarshalFilter decodes a filter encoded by (*Filter).MarshalBinary,
// reconstructing its hash family from the embedded parameters.
func UnmarshalFilter(data []byte) (*Filter, error) { return bloom.UnmarshalFilter(data) }

// ReadTree reads a tree written by (*Tree).WriteTo.
func ReadTree(r io.Reader) (*Tree, error) { return core.ReadTree(r) }

// TreeStats describes a tree's realized structure (per-level fill
// ratios, saturation depth); see (*Tree).ComputeStats.
type TreeStats = core.Stats

// CountingFilter is a counting Bloom filter supporting Remove, for the
// paper's dynamic-community setting; Snapshot returns it as a
// tree-compatible plain Filter, an O(1) header over its bit vector.
type CountingFilter = bloom.CountingFilter
