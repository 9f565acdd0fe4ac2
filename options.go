package bloomsample

import (
	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/hashfam"
	"repro/internal/membership"
	"repro/internal/setdb"
)

// Functional-options construction API. The parameter space — hash
// family, seed, accuracy, tree shape — is too wide for positional
// signatures: every new knob would break them or force another
// NewXxxWithYyy variant. The With* options below compose instead: each
// constructor takes the values that define what is being built (a
// namespace, a plan, filter dimensions) positionally, and everything with
// a sensible default as options.
//
//	db, _ := bloomsample.Open(1_000_000,
//	        bloomsample.WithAccuracy(0.95),
//	        bloomsample.WithPruned(true))
//	tree, _ := bloomsample.NewTreeWith(plan, bloomsample.WithSeed(42))
//	f, _ := bloomsample.NewFilterWith(1<<20, 3, bloomsample.WithHash(bloomsample.Murmur3))

// Membership is the read surface every backend satisfies: membership
// probes, cardinality, a tree-compatible plain-filter query view, and
// the intersection estimators the sampler descends by.
type Membership = membership.Membership

// DynamicMembership adds copy-on-write insertion and removal; values
// are immutable, so published versions may be read without locks.
type DynamicMembership = membership.DynamicMembership

// options collects every construction knob the With* functions set.
type options struct {
	hash          HashKind
	seed          uint64
	accuracy      float64
	k             int
	bits          uint64
	treeDepth     int
	pruned        bool
	designSetSize uint64
}

// Option configures a constructor. Options apply in order; later
// options win.
type Option func(*options)

func buildOptions(opts []Option) options {
	o := options{
		hash:          Fast,
		accuracy:      0.9,
		k:             3,
		designSetSize: 1000,
	}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithHash selects the hash family (default Fast).
func WithHash(kind HashKind) Option { return func(o *options) { o.hash = kind } }

// WithSeed sets the hash seed (default 0). Filters only compose —
// union, intersection, tree queries — when built with the same family,
// dimensions and seed.
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithAccuracy sets the target sampling accuracy the planner sizes for
// (default 0.9; values above 0.99 are capped).
func WithAccuracy(a float64) Option { return func(o *options) { o.accuracy = a } }

// WithK sets the number of hash functions used when planning (default 3).
func WithK(k int) Option { return func(o *options) { o.k = k } }

// WithBits overrides the planned filter size in bits. Zero (the
// default) lets WithAccuracy drive the size.
func WithBits(m uint64) Option { return func(o *options) { o.bits = m } }

// WithTreeDepth overrides the planned tree depth. Zero (the default)
// derives the depth from the cost model.
func WithTreeDepth(d int) Option { return func(o *options) { o.treeDepth = d } }

// WithPruned selects a Pruned-BloomSampleTree that allocates only
// occupied subtrees and grows on demand (recommended for sparse
// namespaces). Default false: the full tree is built eagerly.
func WithPruned(pruned bool) Option { return func(o *options) { o.pruned = pruned } }

// WithDesignSetSize sets the typical stored-set size the planner sizes
// for (default 1000).
func WithDesignSetSize(n uint64) Option { return func(o *options) { o.designSetSize = n } }

// Open creates an empty set database over the namespace [0, M),
// planning the filter profile from the accuracy options. A key created by
// a dynamic write (SetDB.AddDynamic, SetDBWrite.Dynamic) holds a counting
// Bloom filter, and one created by a plain write a Bloom filter; both live
// in the database's one key space, and every read serves either:
//
//	db, err := bloomsample.Open(1_000_000,
//	        bloomsample.WithAccuracy(0.95),
//	        bloomsample.WithPruned(true))
func Open(namespace uint64, opts ...Option) (*SetDB, error) {
	o := buildOptions(opts)
	dbo, err := setdb.PlanOptions(o.accuracy, o.designSetSize, namespace, o.k)
	if err != nil {
		return nil, err
	}
	dbo.HashKind = o.hash
	dbo.Seed = o.seed
	dbo.Pruned = o.pruned
	if o.bits != 0 {
		dbo.Bits = o.bits
	}
	if o.treeDepth != 0 {
		dbo.TreeDepth = o.treeDepth
	}
	return setdb.Open(dbo)
}

// NewFilterWith returns an empty Bloom filter with m bits and k hash
// functions; WithHash and WithSeed select the family. Prefer
// Tree.NewQueryFilter when the filter will be queried against a tree.
func NewFilterWith(m uint64, k int, opts ...Option) (*Filter, error) {
	o := buildOptions(opts)
	fam, err := hashfam.New(o.hash, m, k, o.seed)
	if err != nil {
		return nil, err
	}
	return bloom.New(fam), nil
}

// NewCountingFilterWith returns an empty counting Bloom filter with m
// counters and k hash functions; WithHash and WithSeed select the
// family.
func NewCountingFilterWith(m uint64, k int, opts ...Option) (*CountingFilter, error) {
	o := buildOptions(opts)
	fam, err := hashfam.New(o.hash, m, k, o.seed)
	if err != nil {
		return nil, err
	}
	return bloom.NewCounting(fam), nil
}

// NewDynamicMembership returns an empty deletable set: a counting Bloom
// filter of m counters and k hash functions; WithHash and WithSeed select
// the family.
func NewDynamicMembership(m uint64, k int, opts ...Option) (DynamicMembership, error) {
	o := buildOptions(opts)
	fam, err := hashfam.New(o.hash, m, k, o.seed)
	if err != nil {
		return nil, err
	}
	return membership.FromCounting(bloom.NewCounting(fam)), nil
}

// NewTreeWith builds the BloomSampleTree for the plan. WithHash and
// WithSeed select the hash family; WithPruned(true) with occupied ids
// is NewPrunedTreeWith's job (a pruned tree needs the ids).
func NewTreeWith(plan TreePlan, opts ...Option) (*Tree, error) {
	o := buildOptions(opts)
	return core.BuildTree(plan.TreeConfig(o.hash, o.seed))
}

// NewPrunedTreeWith builds a Pruned-BloomSampleTree over only the
// occupied identifiers; Tree.Insert grows it as occupancy grows.
func NewPrunedTreeWith(plan TreePlan, occupied []uint64, opts ...Option) (*Tree, error) {
	o := buildOptions(opts)
	return core.BuildPruned(plan.TreeConfig(o.hash, o.seed), occupied)
}

// UnmarshalMembership decodes a membership value of any backend from the
// tagged envelope Membership.MarshalBinary writes.
func UnmarshalMembership(data []byte) (Membership, error) {
	return membership.Unmarshal(data)
}
