package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/hashfam"
)

// ErrNotMember is wrapped by Remove/CloneRemove when the element to
// remove is not currently a positive; match it with errors.Is. Callers
// (e.g. a serving layer) use it to distinguish a client mistake from an
// internal failure.
var ErrNotMember = errors.New("bloom: remove of non-member")

// CountingFilter is a counting Bloom filter: each position holds an 8-bit
// saturating counter instead of one bit, so elements can be removed. The
// paper's motivating applications store *dynamic* communities (§1); a
// plain Bloom filter cannot forget a member, while a counting filter can,
// at 8× the memory. Snapshot() projects the current state onto a plain
// Filter compatible with a BloomSampleTree, so dynamic sets can still be
// sampled and reconstructed.
//
// Counters saturate at 255 rather than wrap; a saturated counter is never
// decremented (standard counting-filter practice: correctness degrades to
// "may yield false positives", never false negatives for present
// elements, as long as Remove is only called for previously Added
// elements).
//
// The projection is built at most once in the life of a served value: the
// first Snapshot of a version folds all m counters, and the copy-on-write
// forms (CloneAdd, CloneRemove) hand it on, patching only the bits whose
// counter crossed 0 ↔ 1, so the successor's projection is bit for bit the
// one a fresh fold of its counters would give. The hand-on happens only
// when the receiver has a projection: a chain of versions nobody reads
// (ingest, log replay) builds none.
//
// Like Filter, the query side (Contains, Snapshot) is read-only and safe
// for unsynchronized concurrent callers on a filter that is no longer
// being mutated (e.g. one published immutably, as setdb does). The
// mutating operations (Add, Remove, Reset) require external
// synchronization against both mutators and readers: a Snapshot racing a
// mutation may memoize the pre-mutation projection over the mutation's
// cache invalidation, making the stale projection sticky until the next
// mutation. The copy-on-write forms never mutate the receiver or its
// projection, so a publisher holding filters behind an atomic pointer can
// apply them against the current version and swap in the result without
// stalling readers — of the version or of a projection they took from it.
type CountingFilter struct {
	counts []uint8
	fam    hashfam.Family
	n      uint64 // live insertions (Add minus Remove)

	// snap is the plain-filter projection of the current counts, nil while
	// none has been asked for. In-place mutation drops it; Clone shares it
	// and CloneAdd/CloneRemove carry it (viewPatch).
	snap atomic.Pointer[Filter]
}

// NewCounting returns an empty counting filter for the family.
func NewCounting(fam hashfam.Family) *CountingFilter {
	return &CountingFilter{
		counts: make([]uint8, fam.M()),
		fam:    fam,
	}
}

// M returns the filter length in positions.
func (c *CountingFilter) M() uint64 { return uint64(len(c.counts)) }

// K returns the number of hash functions.
func (c *CountingFilter) K() int { return c.fam.K() }

// MatchesFamily is Filter.MatchesFamily for the counters: what its Snapshot
// would answer, without building one.
func (c *CountingFilter) MatchesFamily(fam hashfam.Family) error {
	return matchFamily(c.M(), c.fam, fam)
}

// Live returns the net number of insertions (Add calls minus successful
// Remove calls).
func (c *CountingFilter) Live() uint64 { return c.n }

// viewPatch carries a parent version's projection to the version being
// derived from it. The parent's bit vector is cloned on the first counter
// that crosses 0 ↔ 1 and only those bits are written; when none crosses,
// the child shares the vector (both are immutable by contract, as in
// Filter.CloneAdd). The zero patch — a parent without a projection —
// carries nothing and costs a nil check per crossing.
type viewPatch struct {
	parent *Filter
	bits   *bitset.Set // the parent's vector, cloned on the first crossing
}

// cross records that the counter at p left zero (set) or reached it.
func (v *viewPatch) cross(p uint64, set bool) {
	if v.parent == nil {
		return
	}
	if v.bits == nil {
		v.bits = v.parent.bits.Clone()
	}
	if set {
		v.bits.Set(p)
	} else {
		v.bits.Clear(p)
	}
}

// handOn installs the carried projection on next, under a header of its
// own: next's insertion count, and no derived value — what was computed
// from the parent filter stays with the parent.
func (v *viewPatch) handOn(next *CountingFilter) {
	if v.parent == nil {
		return
	}
	bits := v.bits
	if bits == nil {
		bits = v.parent.bits
	}
	next.snap.Store(&Filter{bits: bits, fam: next.fam, n: next.n})
}

// add counts one insertion at each position, reporting to v the counters
// that leave zero.
func (c *CountingFilter) add(pos []uint64, v *viewPatch) {
	for _, p := range pos {
		switch c.counts[p] {
		case 255: // saturated counters are pinned
		case 0:
			c.counts[p] = 1
			v.cross(p, true)
		default:
			c.counts[p]++
		}
	}
	c.n++
}

// remove takes one insertion back from each position, reporting to v the
// counters that reach zero; it changes nothing and returns false when some
// position is already zero (the element is not a positive).
func (c *CountingFilter) remove(pos []uint64, v *viewPatch) bool {
	for _, p := range pos {
		if c.counts[p] == 0 {
			return false
		}
	}
	for _, p := range pos {
		switch c.counts[p] {
		case 255: // saturated counters are pinned
		case 0: // a position this element hashes to twice, already taken back
		case 1:
			c.counts[p] = 0
			v.cross(p, false)
		default:
			c.counts[p]--
		}
	}
	if c.n > 0 {
		c.n--
	}
	return true
}

// Add inserts x. Add mutates the filter; callers must serialize it against
// concurrent readers and writers.
func (c *CountingFilter) Add(x uint64) {
	bp, pos := getPositions(c.fam, x)
	c.add(pos, &viewPatch{})
	putPositions(bp, pos)
	c.snap.Store(nil)
}

// Remove deletes one previous insertion of x. It returns an error if x is
// not currently a positive (removing a never-added element would corrupt
// other elements' counters).
func (c *CountingFilter) Remove(x uint64) error {
	bp, pos := getPositions(c.fam, x)
	ok := c.remove(pos, &viewPatch{})
	putPositions(bp, pos)
	if !ok {
		return fmt.Errorf("%w %d", ErrNotMember, x)
	}
	c.snap.Store(nil)
	return nil
}

// Contains reports whether x is a (possibly false) positive. Contains is
// read-only and safe for unsynchronized concurrent callers. When the
// plain-filter projection is there (a version that has served a Snapshot,
// or descends from one that has), the probe runs through its word-sliced
// bit vector instead of k scattered counter loads; the projection always
// equals the counters' fold, so the two paths agree.
func (c *CountingFilter) Contains(x uint64) bool {
	if f := c.snap.Load(); f != nil {
		return f.Contains(x)
	}
	bp, pos := getPositions(c.fam, x)
	ok := true
	for _, p := range pos {
		if c.counts[p] == 0 {
			ok = false
			break
		}
	}
	putPositions(bp, pos)
	return ok
}

// Clone returns a deep copy of the counters (sharing the immutable family).
// The copy starts with the receiver's projection when there is one: the
// counters are equal and the projection is immutable, so it is shared, and
// the copy's first in-place mutation drops only the copy's reference.
func (c *CountingFilter) Clone() *CountingFilter {
	next := &CountingFilter{counts: slices.Clone(c.counts), fam: c.fam, n: c.n}
	next.snap.Store(c.snap.Load())
	return next
}

// CloneAdd is the copy-on-write form of Add: it returns a new counting
// filter equal to c with ids inserted, leaving c untouched. When c has its
// projection the result has its own, patched from c's.
func (c *CountingFilter) CloneAdd(ids ...uint64) *CountingFilter {
	next := c.Clone()
	v := viewPatch{parent: next.snap.Load()}
	bp := posBuf.Get().(*[]uint64)
	pos := (*bp)[:0]
	for _, x := range ids {
		pos = c.fam.Positions(x, pos[:0])
		next.add(pos, &v)
	}
	putPositions(bp, pos)
	v.handOn(next)
	return next
}

// CloneRemove is the copy-on-write form of Remove with all-or-nothing
// batch semantics: it returns a new counting filter equal to c with one
// insertion of each id removed, leaving c and its projection untouched. If
// any id is not a member at its turn, an error is returned and no new
// filter is produced — unlike repeated Remove calls, a failed batch leaves
// no partial state for a publisher to expose. When c has its projection
// the result has its own, patched from c's.
func (c *CountingFilter) CloneRemove(ids ...uint64) (*CountingFilter, error) {
	next := c.Clone()
	v := viewPatch{parent: next.snap.Load()}
	bp := posBuf.Get().(*[]uint64)
	pos := (*bp)[:0]
	for _, x := range ids {
		pos = c.fam.Positions(x, pos[:0])
		if !next.remove(pos, &v) {
			putPositions(bp, pos)
			return nil, fmt.Errorf("%w %d", ErrNotMember, x)
		}
	}
	putPositions(bp, pos)
	v.handOn(next)
	return next, nil
}

// Snapshot projects the counting filter onto a plain Filter (counter > 0
// → bit set) sharing the same family, ready for use against a
// BloomSampleTree built with the same parameters. The projection is
// remembered until the next in-place mutation and handed on by the
// copy-on-write forms, so only a version with no viewed ancestor (first
// read after boot, restore or ingest) pays the fold over all m counters.
// The returned filter is shared: treat it as immutable.
func (c *CountingFilter) Snapshot() *Filter {
	if f := c.snap.Load(); f != nil {
		return f
	}
	m := uint64(len(c.counts))
	f := &Filter{bits: bitset.FromWords(m, project(c.counts)), fam: c.fam, n: c.n}
	c.snap.Store(f)
	return f
}

// PeekSnapshot returns the projection if the filter holds one and nil
// otherwise; unlike Snapshot it never builds it (memory accounting,
// tests).
func (c *CountingFilter) PeekSnapshot() *Filter { return c.snap.Load() }

// project folds counters to packed bits, bit p set iff counts[p] > 0, a
// word of 64 counters at a time; the counters past the last full word are
// folded bytewise.
func project(counts []uint8) []uint64 {
	words := make([]uint64, (len(counts)+63)/64)
	rest := counts
	for i := 0; len(rest) >= 64; i, rest = i+1, rest[64:] {
		words[i] = fold8(rest) | fold8(rest[8:])<<8 | fold8(rest[16:])<<16 | fold8(rest[24:])<<24 |
			fold8(rest[32:])<<32 | fold8(rest[40:])<<40 | fold8(rest[48:])<<48 | fold8(rest[56:])<<56
	}
	for p := len(counts) - len(rest); p < len(counts); p++ {
		if counts[p] != 0 {
			words[p/64] |= 1 << (p % 64)
		}
	}
	return words
}

// fold8 reads eight counters in one 64-bit load and returns a byte whose
// bit j says whether counter j is non-zero. The add leaves bit 7 of every
// non-zero byte set without carrying into its neighbour; the multiply then
// gathers those eight bits into the top byte (byte j lands on bit 56+j,
// and no two partial products meet, so nothing carries).
func fold8(counts []uint8) uint64 {
	const (
		low7   = 0x7f7f7f7f7f7f7f7f
		high1  = 0x8080808080808080
		gather = 0x0102040810204080
	)
	w := binary.LittleEndian.Uint64(counts)
	nonzero := ((w&low7 + low7) | w) & high1
	return (nonzero >> 7) * gather >> 56
}

// SizeBytes returns the in-memory size of the counter array.
func (c *CountingFilter) SizeBytes() uint64 { return uint64(len(c.counts)) }

// Reset clears the filter.
func (c *CountingFilter) Reset() {
	clear(c.counts)
	c.n = 0
	c.snap.Store(nil)
}
