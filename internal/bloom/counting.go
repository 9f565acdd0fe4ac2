package bloom

import (
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
// plain Bloom filter cannot forget a member, while a counting filter can.
// Snapshot() returns the current state as a plain Filter compatible with a
// BloomSampleTree, so dynamic sets can still be sampled and reconstructed.
//
// The counters are held as two parts. bits has bit p set iff counter p is
// non-zero: it is the plain filter, and Snapshot is a header over it. over
// lists every counter of 2 or more, sorted by position. At planned load
// almost every non-zero counter is 1 (Fan et al., Summary Cache), so a
// filter costs m/8 bytes plus 8 per entry of over, at most m/8 + 4·k·Live()
// — what it stores, not m bytes of counters.
//
// Counters saturate at 255 rather than wrap; a saturated counter is never
// decremented (standard counting-filter practice: correctness degrades to
// "may yield false positives", never false negatives for present
// elements, as long as Remove is only called for previously Added
// elements).
//
// Like Filter, the query side (Contains, Snapshot) is read-only and safe
// for unsynchronized concurrent callers on a filter that is no longer
// being mutated (e.g. one published immutably, as setdb does). The
// mutating operations (Add, Remove, Reset) require external
// synchronization against both mutators and readers. The copy-on-write
// forms (Clone, CloneAdd, CloneRemove) never mutate the receiver or a
// snapshot taken from it: the result shares both parts with the receiver
// and copies a part only on its first change, so a publisher holding
// filters behind an atomic pointer can apply them against the current
// version and swap in the result without stalling readers.
type CountingFilter struct {
	bits *bitset.Set // bit p set iff counter p > 0
	over []uint64    // p<<8 | count for every counter ≥ 2, ascending
	fam  hashfam.Family
	n    uint64 // live insertions (Add minus Remove)

	// frozen says bits or over may be shared — with a clone, a derived
	// version or a snapshot — so an in-place mutation copies both first.
	frozen atomic.Bool
	// snap is the Filter header over bits, made by the first Snapshot.
	snap atomic.Pointer[Filter]
}

// NewCounting returns an empty counting filter for the family.
func NewCounting(fam hashfam.Family) *CountingFilter {
	return &CountingFilter{bits: bitset.New(fam.M()), fam: fam}
}

// NewCountingFromElements returns a counting filter holding one insertion of
// each of xs, duplicates counted: what Add leaves called once for each. It
// is built as NewFromElements builds a plain filter, the positions hashed
// ProbeBlock ids at a time into one pooled buffer, with no pool round trip
// and no copy-on-write check an id.
func NewCountingFromElements(fam hashfam.Family, xs []uint64) *CountingFilter {
	c := NewCounting(fam)
	o, k := owned{bits: true, over: true}, fam.K()
	bp := posBuf.Get().(*[]uint64)
	pos := (*bp)[:0]
	for rest := xs; len(rest) > 0; {
		n := min(len(rest), ProbeBlock)
		pos = hashfam.PositionsMany(fam, rest[:n], pos[:0])
		for i := range n {
			c.add(pos[i*k:(i+1)*k], &o)
		}
		rest = rest[n:]
	}
	putPositions(bp, pos)
	return c
}

// M returns the filter length in positions.
func (c *CountingFilter) M() uint64 { return c.bits.Len() }

// K returns the number of hash functions.
func (c *CountingFilter) K() int { return c.fam.K() }

// MatchesFamily is Filter.MatchesFamily for the counters: what its Snapshot
// would answer.
func (c *CountingFilter) MatchesFamily(fam hashfam.Family) error {
	return matchFamily(c.M(), c.fam, fam)
}

// Live returns the net number of insertions (Add calls minus successful
// Remove calls).
func (c *CountingFilter) Live() uint64 { return c.n }

// owned records which parts a write has made its own; a part still shared
// is copied before its first change.
type owned struct{ bits, over bool }

func (c *CountingFilter) ownBits(o *owned) {
	if !o.bits {
		c.bits, o.bits = c.bits.Clone(), true
	}
}

func (c *CountingFilter) ownOver(o *owned) {
	if !o.over {
		c.over, o.over = slices.Clone(c.over), true
	}
}

// find returns the index of p's entry in over, or where it would go, and
// whether it is there.
func (c *CountingFilter) find(p uint64) (int, bool) {
	i, _ := slices.BinarySearch(c.over, p<<8)
	return i, i < len(c.over) && c.over[i]>>8 == p
}

// add counts one insertion at each position.
func (c *CountingFilter) add(pos []uint64, o *owned) {
	for _, p := range pos {
		if !c.bits.Test(p) {
			c.ownBits(o)
			c.bits.Set(p)
			continue
		}
		switch i, ok := c.find(p); {
		case !ok:
			c.ownOver(o)
			c.over = slices.Insert(c.over, i, p<<8|2)
		case uint8(c.over[i]) < 255: // saturated counters are pinned
			c.ownOver(o)
			c.over[i]++
		}
	}
	c.n++
}

// remove takes one insertion back from each position; the caller has
// checked that every position is non-zero (the element is a positive).
func (c *CountingFilter) remove(pos []uint64, o *owned) {
	for _, p := range pos {
		if !c.bits.Test(p) {
			continue // a position this element hashes to twice, already taken back
		}
		switch i, ok := c.find(p); {
		case !ok:
			c.ownBits(o)
			c.bits.Clear(p)
		case uint8(c.over[i]) == 255: // saturated counters are pinned
		case uint8(c.over[i]) == 2:
			c.ownOver(o)
			c.over = slices.Delete(c.over, i, i+1)
		default:
			c.ownOver(o)
			c.over[i]--
		}
	}
	if c.n > 0 {
		c.n--
	}
}

// thaw readies the filter for an in-place mutation: when its parts may be
// shared it copies both and drops the snapshot of the state about to
// change. It returns the filter's claim to both parts.
func (c *CountingFilter) thaw() owned {
	if c.frozen.Load() {
		c.bits, c.over = c.bits.Clone(), slices.Clone(c.over)
		c.frozen.Store(false)
		c.snap.Store(nil)
	}
	return owned{bits: true, over: true}
}

// Add inserts x. Add mutates the filter; callers must serialize it against
// concurrent readers and writers.
func (c *CountingFilter) Add(x uint64) {
	bp, pos := getPositions(c.fam, x)
	o := c.thaw()
	c.add(pos, &o)
	putPositions(bp, pos)
}

// Remove deletes one previous insertion of x. It returns an error if x is
// not currently a positive (removing a never-added element would corrupt
// other elements' counters).
func (c *CountingFilter) Remove(x uint64) error {
	bp, pos := getPositions(c.fam, x)
	defer putPositions(bp, pos)
	if !c.bits.TestAll(pos) {
		return fmt.Errorf("%w %d", ErrNotMember, x)
	}
	o := c.thaw()
	c.remove(pos, &o)
	return nil
}

// Contains reports whether x is a (possibly false) positive. Contains is
// read-only and safe for unsynchronized concurrent callers.
func (c *CountingFilter) Contains(x uint64) bool {
	bp, pos := getPositions(c.fam, x)
	ok := c.bits.TestAll(pos)
	putPositions(bp, pos)
	return ok
}

// Clone returns a copy of the filter in O(1): the two share both parts,
// and whichever is mutated in place first copies them.
func (c *CountingFilter) Clone() *CountingFilter {
	next := c.derive()
	next.frozen.Store(true)
	return next
}

// CloneAdd is the copy-on-write form of Add: it returns a new counting
// filter equal to c with ids inserted, leaving c untouched. The result
// copies bits only if a counter leaves zero and over only if a non-zero
// counter moves; whatever it did not copy it shares with c.
func (c *CountingFilter) CloneAdd(ids ...uint64) *CountingFilter {
	next, o := c.derive(), owned{}
	bp := posBuf.Get().(*[]uint64)
	pos := (*bp)[:0]
	for _, x := range ids {
		pos = c.fam.Positions(x, pos[:0])
		next.add(pos, &o)
	}
	putPositions(bp, pos)
	next.frozen.Store(!o.bits || !o.over)
	return next
}

// CloneRemove is the copy-on-write form of Remove with all-or-nothing
// batch semantics: it returns a new counting filter equal to c with one
// insertion of each id removed, leaving c and its snapshot untouched. If
// any id is not a member at its turn, an error is returned and no new
// filter is produced — unlike repeated Remove calls, a failed batch leaves
// no partial state for a publisher to expose. Parts are copied as in
// CloneAdd: bits when a counter reaches zero, over when one of 2 or more
// moves.
func (c *CountingFilter) CloneRemove(ids ...uint64) (*CountingFilter, error) {
	next, o := c.derive(), owned{}
	bp := posBuf.Get().(*[]uint64)
	pos := (*bp)[:0]
	for _, x := range ids {
		pos = c.fam.Positions(x, pos[:0])
		if !next.bits.TestAll(pos) {
			putPositions(bp, pos)
			return nil, fmt.Errorf("%w %d", ErrNotMember, x)
		}
		next.remove(pos, &o)
	}
	putPositions(bp, pos)
	next.frozen.Store(!o.bits || !o.over)
	return next, nil
}

// derive starts a version from c: a header over c's parts, which c may no
// longer change in place.
func (c *CountingFilter) derive() *CountingFilter {
	if !c.frozen.Load() {
		c.frozen.Store(true)
	}
	return &CountingFilter{bits: c.bits, over: c.over, fam: c.fam, n: c.n}
}

// Snapshot returns the counting filter as a plain Filter (counter > 0 →
// bit set) sharing the same family, ready for use against a
// BloomSampleTree built with the same parameters. It is a header over the
// filter's own bit vector, made once per value: O(1), and every caller
// gets the same one. The returned filter is shared: treat it as immutable.
func (c *CountingFilter) Snapshot() *Filter {
	if f := c.snap.Load(); f != nil {
		return f
	}
	c.frozen.Store(true)
	f := &Filter{bits: c.bits, fam: c.fam, n: c.n}
	if c.snap.CompareAndSwap(nil, f) {
		return f
	}
	return c.snap.Load()
}

// SizeBytes returns the in-memory size of the two parts: the bit vector
// and 8 bytes per counter of 2 or more.
func (c *CountingFilter) SizeBytes() uint64 {
	return c.bits.SizeBytes() + 8*uint64(len(c.over))
}

// Reset clears the filter.
func (c *CountingFilter) Reset() {
	c.bits, c.over, c.n = bitset.New(c.M()), nil, 0
	c.frozen.Store(false)
	c.snap.Store(nil)
}
