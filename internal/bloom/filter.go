// Package bloom implements the Bloom filter substrate of the paper (§3.1):
// insertion, membership, union and intersection (bitwise OR/AND), together
// with the estimators the BloomSampleTree relies on — single-filter
// cardinality estimation, the Papapetrou et al. intersection-size estimate
// Ŝ⁻¹(t1,t2,t∧) used in §5.3, the false-set-overlap probability of
// Eq. (1), the classic false-positive rate, and the accuracy-driven
// parameter planning of §5.4.
package bloom

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/hashfam"
)

// Filter is a Bloom filter over a namespace of uint64 elements. All filters
// that are unioned, intersected, or served by a common BloomSampleTree must
// share the same length m and hash family H (§3.1, §5.1); Compatible checks
// this.
//
// Query-side operations (Contains, SetBits, IntersectsAny,
// EstimateCardinality, EstimateIntersectionOf, …) are read-only on the
// filter and safe for unsynchronized concurrent callers; position buffers
// are drawn from a shared pool rather than stored per instance. Mutating
// operations (Add, Reset) require external synchronization against both
// writers and readers.
type Filter struct {
	bits *bitset.Set
	fam  hashfam.Family
	n    uint64 // number of Add calls (insertions, not distinct elements)

	// derived is one value a tightly coupled package computed from this
	// filter's bits and keeps beside them (core hangs a version's estimate
	// index here), as bitset.Set carries its popcount and CountingFilter
	// its snapshot. The filter does not interpret it: it is set at most
	// once per state of the bits (AttachDerived), dropped by every in-place
	// mutator and not carried over by Clone or CloneAdd, so it lives exactly
	// as long as the filter value stays what it was computed from.
	derived atomic.Pointer[any]
}

// Derived returns the value attached to the filter's current bits, nil
// when there is none. Safe for concurrent callers.
func (f *Filter) Derived() any {
	if p := f.derived.Load(); p != nil {
		return *p
	}
	return nil
}

// AttachDerived attaches v unless a value is attached already, and returns
// the attached one: of several concurrent callers all get the first's. Only
// a filter that is no longer mutated keeps what is attached; writing
// through Bits() is outside that contract and drops nothing.
func (f *Filter) AttachDerived(v any) any {
	if f.derived.CompareAndSwap(nil, &v) {
		return v
	}
	return f.Derived()
}

// dropDerived forgets the attached value: the bits are about to change. A
// load before the store keeps bulk inserts off the atomic store, as in
// bitset.Set's popcount.
func (f *Filter) dropDerived() {
	if f.derived.Load() != nil {
		f.derived.Store(nil)
	}
}

// posBuf pools hash-position buffers so that hashing an element allocates
// nothing per call without the filter owning mutable scratch state. Buffers
// grow to the largest K seen and are reused across all filters and
// goroutines.
var posBuf = sync.Pool{New: func() any { s := make([]uint64, 0, 16); return &s }}

// getPositions hashes x with fam into a pooled buffer. The caller must
// return the buffer with putPositions and not retain the slice afterwards.
func getPositions(fam hashfam.Family, x uint64) (*[]uint64, []uint64) {
	bp := posBuf.Get().(*[]uint64)
	pos := fam.Positions(x, (*bp)[:0])
	return bp, pos
}

// maxPooledPositions caps the capacity of buffers returned to posBuf.
// The pool's buffers live for the life of the process, so one probe
// against a pathological high-k family (or a batched hash burst) must
// not pin an arbitrarily large buffer in steady-state memory: oversized
// buffers are dropped for the GC instead of recycled.
const maxPooledPositions = 256

// poolablePositions reports whether a buffer of the given capacity may
// be returned to the pool.
func poolablePositions(c int) bool { return c <= maxPooledPositions }

// putPositions recycles a buffer obtained from getPositions, keeping any
// growth append may have performed; buffers grown past
// maxPooledPositions are dropped rather than pinned.
func putPositions(bp *[]uint64, pos []uint64) {
	if !poolablePositions(cap(pos)) {
		return
	}
	*bp = pos[:0]
	posBuf.Put(bp)
}

// New returns an empty filter using the given family; the filter length is
// the family's range M().
func New(fam hashfam.Family) *Filter {
	return &Filter{
		bits: bitset.New(fam.M()),
		fam:  fam,
	}
}

// NewFromElements builds a filter containing every element of xs, using
// the family's batched hash path.
func NewFromElements(fam hashfam.Family, xs []uint64) *Filter {
	f := New(fam)
	f.AddMany(xs)
	return f
}

// M returns the filter length in bits.
func (f *Filter) M() uint64 { return f.bits.Len() }

// K returns the number of hash functions.
func (f *Filter) K() int { return f.fam.K() }

// Family returns the filter's hash family.
func (f *Filter) Family() hashfam.Family { return f.fam }

// Insertions returns the number of Add calls made on this filter (not the
// number of distinct elements; re-adding counts). Filters produced by
// Union/Intersect report the sum/zero respectively, since exact counts are
// unknowable — use EstimateCardinality for those.
func (f *Filter) Insertions() uint64 { return f.n }

// Add inserts x into the filter. Add mutates the filter; callers must
// serialize it against concurrent readers and writers.
func (f *Filter) Add(x uint64) {
	f.dropDerived()
	bp, pos := getPositions(f.fam, x)
	f.bits.SetAll(pos)
	putPositions(bp, pos)
	f.n++
}

// AddScratch is Add with a caller-owned scratch buffer: hash positions
// are appended into buf (reusing its capacity) and the possibly grown
// buffer is returned, so bulk-insert loops (tree construction, database
// ingest) skip the pool round trip per element. Like Add it mutates the
// filter and requires external synchronization.
func (f *Filter) AddScratch(x uint64, buf []uint64) []uint64 {
	f.dropDerived()
	buf = f.fam.Positions(x, buf[:0])
	f.bits.SetAll(buf)
	f.n++
	return buf
}

// Contains reports whether x is a (possibly false) positive of the filter.
// A Bloom filter never yields false negatives. Contains is read-only and
// safe for unsynchronized concurrent callers. The k probes run through
// the bit vector's word-sliced TestAll, which merges same-word probes
// and short-circuits on the first missing word.
func (f *Filter) Contains(x uint64) bool {
	bp, pos := getPositions(f.fam, x)
	ok := f.bits.TestAll(pos)
	putPositions(bp, pos)
	return ok
}

// ContainsScratch is Contains with a caller-owned scratch buffer: hash
// positions are appended into buf (reusing its capacity) and the possibly
// grown buffer is returned alongside the verdict. Hot loops that probe
// many elements against one filter (tree leaf scans, the dictionary-
// attack baseline) use it to amortize a single buffer across the whole
// scan instead of paying a pool round trip per element. Safe for
// concurrent callers as long as each owns its buf.
func (f *Filter) ContainsScratch(x uint64, buf []uint64) (bool, []uint64) {
	buf = f.fam.Positions(x, buf[:0])
	return f.bits.TestAll(buf), buf
}

// Probe is ContainsScratch stopping at the first missing bit where the
// family can (the default fast family: no position is stored and buf is
// left alone); the other families answer through ContainsScratch. It is
// the probe for callers that test scattered single ids of a mostly-zero
// filter — a sampled leaf — where most ids fail on their first position.
func (f *Filter) Probe(x uint64, buf []uint64) (bool, []uint64) {
	if rp, ok := f.fam.(hashfam.RangeProber); ok {
		return rp.Contains(f.bits.Raw(), x), buf
	}
	return f.ContainsScratch(x, buf)
}

// ContainsBatch probes every element of xs against the filter, writing
// the verdict for xs[i] into out[i] (out must be at least len(xs) long).
// All keys are hashed in one batched PositionsMany call into scratch and
// each k-group is then checked with the word-sliced TestAll, so the
// per-key cost is one inlined hash plus the short-circuiting probe — no
// interface dispatch, no pool round trips. The possibly grown scratch is
// returned for the next call; a loop that threads it back in allocates
// nothing. Safe for concurrent callers as long as each owns out and
// scratch.
func (f *Filter) ContainsBatch(xs []uint64, out []bool, scratch []uint64) []uint64 {
	k := f.fam.K()
	scratch = hashfam.PositionsMany(f.fam, xs, scratch[:0])
	for i := range xs {
		out[i] = f.bits.TestAll(scratch[i*k : (i+1)*k])
	}
	return scratch
}

// AppendPositives appends to out, in ascending order, every id of
// [lo, hi) that answers positively — the brute-force scan at the bottom of
// every reconstruction and multi-sample, and of a draw whose sampled leaf
// (Probe) found nothing. Families with a fused range probe (the default
// fast family) stop at each id's first missing bit and store no positions;
// the others hash the range in blocks through PositionsMany and test each
// k-group. Either way nothing is allocated while out has room: the block
// loop borrows its key and position blocks from out's spare capacity. Safe
// for concurrent callers as long as each owns out.
func (f *Filter) AppendPositives(lo, hi uint64, out []uint64) []uint64 {
	if rp, ok := f.fam.(hashfam.RangeProber); ok {
		return rp.AppendPositives(f.bits.Raw(), lo, hi, out)
	}
	k := f.fam.K()
	tmp := ProbeBlock * (k + 1)
	for ; lo < hi; lo += ProbeBlock {
		n := int(min(ProbeBlock, hi-lo))
		// The key block and its positions sit at the far end of out's
		// capacity, clear of the at most n hits this block appends.
		out = slices.Grow(out, n+tmp)
		buf := out[cap(out)-tmp : cap(out)]
		xs := buf[:n]
		for i := range xs {
			xs[i] = lo + uint64(i)
		}
		pos := hashfam.PositionsMany(f.fam, xs, buf[ProbeBlock:ProbeBlock])
		for i, x := range xs {
			if f.bits.TestAll(pos[i*k : (i+1)*k]) {
				out = append(out, x)
			}
		}
	}
	return out
}

// ProbeBlock is the number of ids hashed per PositionsMany call, by AddMany
// and by AppendPositives on families without a fused range probe, so the
// batched positions stay a few KB however long the batch or the range is.
// A scan borrows ProbeBlock·(k+2) words beyond the hits already in its
// output.
const ProbeBlock = 64

// AddMany inserts every element of xs, hashing the whole batch through
// the family's batched path in bounded blocks (one scratch allocation
// sized to the first block, however long xs is). Like Add it mutates the
// filter and requires external synchronization.
func (f *Filter) AddMany(xs []uint64) {
	if len(xs) == 0 {
		return
	}
	f.dropDerived()
	k := f.fam.K()
	scratch := make([]uint64, 0, min(len(xs), ProbeBlock)*k)
	for len(xs) > 0 {
		n := min(len(xs), ProbeBlock)
		scratch = hashfam.PositionsMany(f.fam, xs[:n], scratch[:0])
		f.bits.SetAll(scratch)
		f.n += uint64(n)
		xs = xs[n:]
	}
}

// SetBits returns the number of 1 bits (t in the paper's estimators).
func (f *Filter) SetBits() uint64 { return f.bits.Count() }

// FillRatio returns the fraction of bits set.
func (f *Filter) FillRatio() float64 { return float64(f.bits.Count()) / float64(f.bits.Len()) }

// Empty reports whether no bit is set (the canonical empty-set encoding).
func (f *Filter) Empty() bool { return f.bits.None() }

// Reset clears the filter to the empty set.
func (f *Filter) Reset() {
	f.dropDerived()
	f.bits.Reset()
	f.n = 0
}

// Clone returns a deep copy of the filter (sharing the immutable family);
// a derived value stays with the original.
func (f *Filter) Clone() *Filter {
	return &Filter{bits: f.bits.Clone(), fam: f.fam, n: f.n}
}

// CloneAdd is the copy-on-write form of Add: it returns a new filter equal
// to f with ids inserted, leaving f untouched, so callers that publish
// filters through atomic pointers can mutate without ever blocking readers
// of the previous version. The bit vector is copied word-level once and
// all ids are inserted into the copy; when every id is already a positive
// (no bit would change — common for saturated tree nodes and duplicate
// inserts) the copy is skipped entirely and the new filter shares f's bit
// vector, which is safe as long as both values are treated as immutable,
// the contract of every filter reachable from a published snapshot.
func (f *Filter) CloneAdd(ids ...uint64) *Filter {
	bp := posBuf.Get().(*[]uint64)
	pos := (*bp)[:0]
	bits := f.bits
	for _, x := range ids {
		pos = f.fam.Positions(x, pos[:0])
		for _, p := range pos {
			if bits == f.bits {
				if f.bits.Test(p) {
					continue
				}
				bits = f.bits.Clone()
			}
			bits.Set(p)
		}
	}
	*bp = pos[:0]
	posBuf.Put(bp)
	return &Filter{bits: bits, fam: f.fam, n: f.n + uint64(len(ids))}
}

// Equal reports whether two filters have identical bit vectors and
// compatible parameters.
func (f *Filter) Equal(g *Filter) bool {
	return f.Compatible(g) == nil && f.bits.Equal(g.bits)
}

// ErrIncompatible is returned when two filters cannot be combined.
var ErrIncompatible = errors.New("bloom: incompatible filters")

// Compatible returns nil if g uses the same m, k, family kind and seed as
// f, and a descriptive error otherwise.
func (f *Filter) Compatible(g *Filter) error { return f.MatchesFamily(g.fam) }

// MatchesFamily returns nil if the filter was built with parameters equal
// to fam's (m, k, kind, seed), and a descriptive error otherwise. It is the
// allocation-free form of Compatible for callers that hold a family rather
// than a second filter (the BloomSampleTree query check).
func (f *Filter) MatchesFamily(fam hashfam.Family) error { return matchFamily(f.M(), f.fam, fam) }

// matchFamily is the parameter comparison under Filter.MatchesFamily and
// CountingFilter.MatchesFamily: m is the length of the structure built with
// own.
func matchFamily(m uint64, own, fam hashfam.Family) error {
	if m != fam.M() || own.K() != fam.K() ||
		own.Kind() != fam.Kind() || own.Seed() != fam.Seed() {
		return fmt.Errorf("%w: (m=%d,k=%d,%s,seed=%d) vs (m=%d,k=%d,%s,seed=%d)",
			ErrIncompatible, m, own.K(), own.Kind(), own.Seed(),
			fam.M(), fam.K(), fam.Kind(), fam.Seed())
	}
	return nil
}

// Union returns a new filter representing the set union: B(A∪B) =
// B(A) OR B(B) (§3.1). It returns an error if the filters are incompatible.
func (f *Filter) Union(g *Filter) (*Filter, error) {
	if err := f.Compatible(g); err != nil {
		return nil, err
	}
	return &Filter{bits: f.bits.Or(g.bits), fam: f.fam, n: f.n + g.n}, nil
}

// Intersect returns a new filter that is the bitwise AND of f and g, the
// paper's approximation of B(A∩B) (§3.1). It returns an error if the
// filters are incompatible.
func (f *Filter) Intersect(g *Filter) (*Filter, error) {
	if err := f.Compatible(g); err != nil {
		return nil, err
	}
	return &Filter{bits: f.bits.And(g.bits), fam: f.fam}, nil
}

// IntersectsAny reports whether f AND g has any set bit.
func (f *Filter) IntersectsAny(g *Filter) bool { return f.bits.AndAny(g.bits) }

// ForEachSetBit iterates over the positions of set bits in ascending order;
// fn returning false stops iteration. Used by HashInvert.
func (f *Filter) ForEachSetBit(fn func(pos uint64) bool) { f.bits.ForEachSet(fn) }

// ForEachClearBit iterates over the positions of clear bits in ascending
// order; fn returning false stops iteration. Used by HashInvert's dense
// variant.
func (f *Filter) ForEachClearBit(fn func(pos uint64) bool) { f.bits.ForEachClear(fn) }

// SizeBytes returns the in-memory size of the bit vector in bytes (the
// quantity the paper's memory tables report, §7.2).
func (f *Filter) SizeBytes() uint64 { return f.bits.SizeBytes() }

// Bits exposes the underlying bit vector for read-only use by tightly
// coupled packages (the tree builder unions children in place).
func (f *Filter) Bits() *bitset.Set { return f.bits }

// NewFromBits wraps an existing bit vector (taking ownership of it) in a
// filter using the given family; the vector length must equal the
// family's range. Used when deserializing structures that store raw bit
// vectors.
func NewFromBits(fam hashfam.Family, bits *bitset.Set) *Filter {
	if bits.Len() != fam.M() {
		panic(fmt.Sprintf("bloom: bit vector has %d bits, family expects %d", bits.Len(), fam.M()))
	}
	return &Filter{bits: bits, fam: fam}
}
