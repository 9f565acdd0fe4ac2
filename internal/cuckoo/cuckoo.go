// Package cuckoo implements a cuckoo filter (Fan et al., CoNEXT 2014):
// an approximate-membership structure storing short fingerprints in
// 4-slot buckets, where each element may live in one of two buckets
// linked by a partial-key XOR. Unlike a Bloom filter it supports native
// deletion at a fraction of a counting filter's memory (~2 bytes per
// entry at 16-bit fingerprints versus one byte per *filter bit*), and
// its probes touch at most two cache lines. It is the second membership
// backend behind internal/membership; the ROADMAP names tildeleb/cuckoo
// as the reference idiom for the bucketed layout and load-factor design.
//
// Like the Bloom substrate, a Filter follows the repository's
// copy-on-write discipline: the query side (Contains, Count, LoadFactor)
// is read-only and safe for unsynchronized concurrent callers on a
// published (no longer mutated) filter, while Insert/Delete require
// external synchronization — publishers Clone first and swap atomically.
package cuckoo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

const (
	// slotsPerBucket is the bucket width b. Four slots is the sweet spot
	// of Fan et al.'s Table 2: ~95% achievable load factor at a false
	// positive rate of ~ 2b/2^f.
	slotsPerBucket = 4
	// targetLoad is the design load factor capacity planning divides by;
	// BFS eviction reliably fills past it, so sizing at 0.84 leaves slack
	// for skewed fingerprint distributions before Insert reports full.
	targetLoad = 0.84
	// maxBFSNodes bounds the breadth-first eviction search. With fanout 4
	// it explores eviction chains about four buckets deep — enough to
	// reach ~95% load — while keeping the worst-case insert cost fixed.
	// The search is read-only until a path to a free slot is found, so a
	// failed insert never strands a displaced fingerprint (the classic
	// random-walk hazard).
	maxBFSNodes = 512
)

// ErrFull is wrapped by Insert when no eviction path to a free slot
// exists within the search budget; match it with errors.Is. The filter
// is unchanged when Insert fails.
var ErrFull = errors.New("cuckoo: filter full")

// Filter is a cuckoo filter over uint64 elements. Fingerprints are 16
// bits (zero reserved as the empty-slot sentinel), so the per-slot cost
// is 2 bytes and the false-positive rate is about 2·4/2¹⁶ ≈ 0.012%.
type Filter struct {
	table    []uint16 // nbuckets × slotsPerBucket fingerprints; 0 = empty
	nbuckets uint64   // power of two
	mask     uint64   // nbuckets - 1
	seed     uint64
	n        uint64 // live fingerprints (inserts minus deletes)
}

// New returns an empty filter sized to hold about capacity elements at
// the design load factor. The seed derives the fingerprint and bucket
// hashes; filters that should be comparable must share it.
func New(capacity, seed uint64) *Filter {
	if capacity < 1 {
		capacity = 1
	}
	need := uint64(float64(capacity)/targetLoad)/slotsPerBucket + 1
	nb := uint64(1) << bits.Len64(need-1)
	if nb < 2 {
		nb = 2
	}
	return &Filter{
		table:    make([]uint16, nb*slotsPerBucket),
		nbuckets: nb,
		mask:     nb - 1,
		seed:     seed,
	}
}

// mix64 is the splitmix64 finalizer, the same avalanche structure the
// fast hash family builds on.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fingerprintAndIndex derives the element's 16-bit fingerprint (never
// zero) and primary bucket from one mix of the key and seed.
func (f *Filter) fingerprintAndIndex(x uint64) (uint16, uint64) {
	h := mix64(x ^ f.seed*0x9e3779b97f4a7c15)
	fp := uint16(h >> 48)
	if fp == 0 {
		fp = 1
	}
	return fp, h & f.mask
}

// altIndex returns the element's other admissible bucket. XORing with a
// pure function of the fingerprint makes the mapping an involution, so
// either bucket recovers the other without knowing which one i is.
func (f *Filter) altIndex(i uint64, fp uint16) uint64 {
	return (i ^ mix64(uint64(fp)*0xc4ceb9fe1a85ec53)) & f.mask
}

// tryPlace stores fp in any free slot of bucket i.
func (f *Filter) tryPlace(fp uint16, i uint64) bool {
	base := i * slotsPerBucket
	for s := uint64(0); s < slotsPerBucket; s++ {
		if f.table[base+s] == 0 {
			f.table[base+s] = fp
			return true
		}
	}
	return false
}

// Insert adds x to the filter. Duplicate insertions are allowed (each
// occupies a slot and must be deleted separately, the counting-filter
// analogue). Insert mutates the filter and requires external
// synchronization; on ErrFull the filter is unchanged.
func (f *Filter) Insert(x uint64) error {
	fp, i1 := f.fingerprintAndIndex(x)
	i2 := f.altIndex(i1, fp)
	if f.tryPlace(fp, i1) || f.tryPlace(fp, i2) {
		f.n++
		return nil
	}
	if f.insertBFS(fp, i1, i2) {
		f.n++
		return nil
	}
	return fmt.Errorf("%w: %d/%d slots at %d buckets", ErrFull, f.n, f.nbuckets*slotsPerBucket, f.nbuckets)
}

// bfsEntry is one node of the eviction search: freeing a slot in bucket
// requires relocating the fingerprint at (queue[parent].bucket, slot).
type bfsEntry struct {
	bucket uint64
	parent int32
	slot   int8
}

// insertBFS searches breadth-first for a chain of relocations ending in
// a free slot, then executes the chain backwards. The search only reads
// the table; mutations happen exclusively on a discovered complete path,
// so failure leaves the filter untouched.
func (f *Filter) insertBFS(fp uint16, i1, i2 uint64) bool {
	queue := make([]bfsEntry, 0, maxBFSNodes)
	queue = append(queue, bfsEntry{bucket: i1, parent: -1}, bfsEntry{bucket: i2, parent: -1})
	for qi := 0; qi < len(queue); qi++ {
		e := queue[qi]
		base := e.bucket * slotsPerBucket
		for s := uint64(0); s < slotsPerBucket; s++ {
			if f.table[base+s] != 0 {
				continue
			}
			// Free slot found: walk the chain root-ward, moving each
			// parent victim into the slot freed one step later.
			slot := base + s
			for queue[qi].parent >= 0 {
				p := queue[qi].parent
				victim := queue[p].bucket*slotsPerBucket + uint64(queue[qi].slot)
				f.table[slot] = f.table[victim]
				slot = victim
				qi = int(p)
			}
			f.table[slot] = fp
			return true
		}
		if len(queue)+slotsPerBucket > maxBFSNodes {
			continue
		}
		for s := uint64(0); s < slotsPerBucket; s++ {
			vfp := f.table[base+s]
			queue = append(queue, bfsEntry{
				bucket: f.altIndex(e.bucket, vfp),
				parent: int32(qi),
				slot:   int8(s),
			})
		}
	}
	return false
}

// Contains reports whether x is a (possibly false) positive. Read-only;
// safe for unsynchronized concurrent callers of a published filter.
func (f *Filter) Contains(x uint64) bool {
	fp, i1 := f.fingerprintAndIndex(x)
	if f.bucketHas(i1, fp) {
		return true
	}
	return f.bucketHas(f.altIndex(i1, fp), fp)
}

func (f *Filter) bucketHas(i uint64, fp uint16) bool {
	base := i * slotsPerBucket
	return f.table[base] == fp || f.table[base+1] == fp ||
		f.table[base+2] == fp || f.table[base+3] == fp
}

// Delete removes one stored copy of x's fingerprint, reporting whether
// one was found. Like a counting filter, deleting an element that was
// never inserted can remove another element's colliding fingerprint —
// call it only for previously inserted elements. Delete mutates the
// filter and requires external synchronization.
func (f *Filter) Delete(x uint64) bool {
	fp, i1 := f.fingerprintAndIndex(x)
	if f.bucketDelete(i1, fp) || f.bucketDelete(f.altIndex(i1, fp), fp) {
		f.n--
		return true
	}
	return false
}

func (f *Filter) bucketDelete(i uint64, fp uint16) bool {
	base := i * slotsPerBucket
	for s := uint64(0); s < slotsPerBucket; s++ {
		if f.table[base+s] == fp {
			f.table[base+s] = 0
			return true
		}
	}
	return false
}

// Count returns the number of stored fingerprints.
func (f *Filter) Count() uint64 { return f.n }

// Capacity returns the total slot count.
func (f *Filter) Capacity() uint64 { return f.nbuckets * slotsPerBucket }

// LoadFactor returns the fraction of slots occupied.
func (f *Filter) LoadFactor() float64 {
	return float64(f.n) / float64(f.Capacity())
}

// SizeBytes returns the in-memory size of the fingerprint table.
func (f *Filter) SizeBytes() uint64 { return uint64(len(f.table)) * 2 }

// Seed returns the hash seed the filter was built with.
func (f *Filter) Seed() uint64 { return f.seed }

// Clone returns a deep copy, the copy-on-write unit for publishers.
func (f *Filter) Clone() *Filter {
	table := make([]uint16, len(f.table))
	copy(table, f.table)
	return &Filter{table: table, nbuckets: f.nbuckets, mask: f.mask, seed: f.seed, n: f.n}
}

// Binary encoding:
//
//	magic    [4]byte "CKF1"
//	seed     uint64
//	nbuckets uint64
//	n        uint64
//	table    nbuckets×4 little-endian uint16
const filterMagic = "CKF1"

// MarshalBinary encodes the filter.
func (f *Filter) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, 4+24+len(f.table)*2)
	out = append(out, filterMagic...)
	out = binary.LittleEndian.AppendUint64(out, f.seed)
	out = binary.LittleEndian.AppendUint64(out, f.nbuckets)
	out = binary.LittleEndian.AppendUint64(out, f.n)
	for _, fp := range f.table {
		out = binary.LittleEndian.AppendUint16(out, fp)
	}
	return out, nil
}

// Unmarshal decodes a filter produced by MarshalBinary.
func Unmarshal(data []byte) (*Filter, error) {
	if len(data) < 4+24 || string(data[:4]) != filterMagic {
		return nil, fmt.Errorf("cuckoo: bad magic")
	}
	data = data[4:]
	seed := binary.LittleEndian.Uint64(data[0:])
	nb := binary.LittleEndian.Uint64(data[8:])
	n := binary.LittleEndian.Uint64(data[16:])
	data = data[24:]
	if nb < 2 || nb&(nb-1) != 0 {
		return nil, fmt.Errorf("cuckoo: bucket count %d not a power of two", nb)
	}
	// nb is checked against the payload first: a forged one overflows the
	// product below, and then sizes the table.
	if have := uint64(len(data)); nb > have || have != nb*slotsPerBucket*2 {
		return nil, fmt.Errorf("cuckoo: table payload %d bytes, header declares %d buckets", len(data), nb)
	}
	f := &Filter{
		table:    make([]uint16, nb*slotsPerBucket),
		nbuckets: nb,
		mask:     nb - 1,
		seed:     seed,
		n:        n,
	}
	for i := range f.table {
		f.table[i] = binary.LittleEndian.Uint16(data[i*2:])
	}
	return f, nil
}
