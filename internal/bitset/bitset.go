// Package bitset provides a fixed-size, word-packed bit vector used as the
// storage substrate for Bloom filters. It supports the operations the paper
// relies on: setting/testing bits, popcount, bitwise AND/OR (both allocating
// and in-place), iteration over set and unset bits, and binary
// serialization.
package bitset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// Set is a fixed-length bit vector of n bits. The zero value is not usable;
// construct with New.
//
// The popcount is remembered: the first Count computes it and publishes it
// atomically, so any number of readers of an immutable (published) vector
// pay for one pass between them. Mutators only invalidate the remembered
// value — maintaining it bit by bit would tax every insert for a number
// most vectors under construction are never asked for.
type Set struct {
	n     uint64
	words []uint64
	count atomic.Uint64 // popcount + 1; 0 while unknown
}

// invalidate forgets the remembered popcount. The load keeps bulk mutation
// (which finds it already unknown) free of atomic stores.
func (s *Set) invalidate() {
	if s.count.Load() != 0 {
		s.count.Store(0)
	}
}

// New returns a bit vector with n bits, all zero.
func New(n uint64) *Set {
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromWords wraps a caller-built packed word slice (bit i lives at word
// i/64, bit i%64) in a vector of n bits, taking ownership of the slice.
// The slice length must be exactly (n+63)/64; bits beyond n are masked
// off. It lets bulk producers (the counting-filter decoder) assemble a
// vector word-at-a-time instead of bit-at-a-time.
func FromWords(n uint64, words []uint64) *Set {
	if uint64(len(words)) != (n+wordBits-1)/wordBits {
		panic(fmt.Sprintf("bitset: %d words for %d bits, want %d", len(words), n, (n+wordBits-1)/wordBits))
	}
	s := &Set{n: n, words: words}
	s.maskTail()
	return s
}

// Len returns the number of bits in the vector.
func (s *Set) Len() uint64 { return s.n }

// Raw returns the backing words (bit i is bit i%64 of word i/64) for
// read-only use by probe loops that cannot afford a call per bit. Writing
// through it would bypass the remembered popcount.
func (s *Set) Raw() []uint64 { return s.words }

// Set sets bit i to 1. It panics if i is out of range.
func (s *Set) Set(i uint64) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (i % wordBits)
	s.invalidate()
}

// SetAll sets every bit in positions to 1, as Set called on each would,
// with one bounds test a position and one invalidation of the remembered
// popcount for the call: a Bloom filter's insert sets k bits a key, and a
// block of keys k per key. It panics if any position is out of range,
// having set the positions before it.
func (s *Set) SetAll(positions []uint64) {
	words, n := s.words, s.n
	for _, p := range positions {
		if p >= n {
			s.check(p)
		}
		words[p/wordBits] |= 1 << (p % wordBits)
	}
	s.invalidate()
}

// Clear sets bit i to 0. It panics if i is out of range.
func (s *Set) Clear(i uint64) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (i % wordBits)
	s.invalidate()
}

// Test reports whether bit i is 1. It panics if i is out of range.
func (s *Set) Test(i uint64) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(i%wordBits)) != 0
}

func (s *Set) check(i uint64) {
	if i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// TestAll reports whether every position in positions is set. It is the
// word-sliced form of k scattered Test calls: runs of positions that land
// in the same word (the slice is probed in order, so callers producing
// sorted or arithmetic-progression positions benefit most) are merged
// into one mask and checked with a single load, and the probe
// short-circuits on the first word that misses. An empty slice reports
// true. It panics if any examined position is out of range.
func (s *Set) TestAll(positions []uint64) bool {
	for i := 0; i < len(positions); {
		p := positions[i]
		s.check(p)
		wi := p / wordBits
		mask := uint64(1) << (p % wordBits)
		for i++; i < len(positions) && positions[i]/wordBits == wi; i++ {
			s.check(positions[i])
			mask |= 1 << (positions[i] % wordBits)
		}
		if s.words[wi]&mask != mask {
			return false
		}
	}
	return true
}

// Count returns the number of bits set to 1: one pass over the words the
// first time it is asked of a given content, O(1) after that. Like every
// read it may run concurrently with other reads, not with a mutator.
func (s *Set) Count() uint64 {
	if c := s.count.Load(); c != 0 {
		return c - 1
	}
	c, _ := andCount(s.words, s.words, math.MaxUint64)
	s.count.Store(c + 1)
	return c
}

// Any reports whether at least one bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// None reports whether no bit is set.
func (s *Set) None() bool { return !s.Any() }

// Reset clears all bits.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.invalidate()
}

// Fill sets all bits to 1.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.maskTail()
	s.invalidate()
}

// maskTail zeroes the unused bits of the last word so that Count and
// equality remain exact.
func (s *Set) maskTail() {
	if rem := s.n % wordBits; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << rem) - 1
	}
}

// Clone returns a deep copy of s. The words are a make and a copy between
// two local slices, which the compiler fuses into one allocation that is
// not zeroed first (runtime.makeslicecopy): every word is overwritten.
func (s *Set) Clone() *Set {
	src := s.words
	words := make([]uint64, len(src))
	copy(words, src)
	c := &Set{n: s.n, words: words}
	c.count.Store(s.count.Load())
	return c
}

// Equal reports whether s and t have the same length and identical bits.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// And returns a new vector that is the bitwise AND of s and t; the result
// is allocated at the exact word count (New allocates (n+63)/64 words).
// It panics if the lengths differ.
func (s *Set) And(t *Set) *Set {
	s.checkSameLen(t)
	r := New(s.n)
	for i := range s.words {
		r.words[i] = s.words[i] & t.words[i]
	}
	return r
}

// Or returns a new vector that is the bitwise OR of s and t; the result
// is allocated at the exact word count, (n+63)/64, as New allocates.
// It panics if the lengths differ.
func (s *Set) Or(t *Set) *Set {
	s.checkSameLen(t)
	src := s.words
	words := make([]uint64, len(src))
	copy(words, src) // one allocation, not zeroed first (see Clone)
	tw := t.words[:len(words)]
	for i := range words {
		words[i] |= tw[i]
	}
	return &Set{n: s.n, words: words}
}

// AndCount returns popcount(s AND t) without allocating the intersection.
// It panics if the lengths differ.
func (s *Set) AndCount(t *Set) uint64 {
	s.checkSameLen(t)
	c, _ := andCount(s.words, t.words, math.MaxUint64)
	return c
}

// AndCountAtLeast reports whether popcount(s AND t) ≥ need — AndCount(t) ≥
// need — stopping at the first block boundary where the running count
// reaches need, so a threshold far below the count costs a fraction of the
// pass and only a count that falls short costs all of it. It panics if the
// lengths differ.
func (s *Set) AndCountAtLeast(t *Set, need uint64) bool {
	s.checkSameLen(t)
	c, _ := andCount(s.words, t.words, need)
	return c >= need
}

// andBlock is the number of words andCount counts between two looks at its
// running total: long enough that the look is lost beside the popcounts,
// short enough that a threshold met early is noticed early.
const andBlock = 8

// andCount is the one popcount loop under Count, AndCount and
// AndCountAtLeast: popcount(a AND b), andBlock words at a time, each
// block's eight popcounts summed as four independent pairs before they
// join the running count, then the last len(a) % andBlock words one by
// one. It looks at the count only between blocks and stops at the first
// boundary where it has reached need, returning the count of the words it
// read and their number: a multiple of andBlock, or len(a). b must be at
// least as long as a.
func andCount(a, b []uint64, need uint64) (c uint64, read int) {
	b = b[:len(a)]
	i := 0
	for ; i+andBlock <= len(a) && c < need; i += andBlock {
		x, y := a[i:i+andBlock:i+andBlock], b[i:i+andBlock:i+andBlock]
		c += uint64((bits.OnesCount64(x[0]&y[0]) + bits.OnesCount64(x[1]&y[1])) +
			(bits.OnesCount64(x[2]&y[2]) + bits.OnesCount64(x[3]&y[3])) +
			(bits.OnesCount64(x[4]&y[4]) + bits.OnesCount64(x[5]&y[5])) +
			(bits.OnesCount64(x[6]&y[6]) + bits.OnesCount64(x[7]&y[7])))
	}
	if c < need {
		for ; i < len(a); i++ {
			c += uint64(bits.OnesCount64(a[i] & b[i]))
		}
	}
	return c, i
}

// AndAny reports whether s AND t has at least one set bit, short-circuiting
// on the first non-zero word. It panics if the lengths differ.
func (s *Set) AndAny(t *Set) bool {
	s.checkSameLen(t)
	for i := range s.words {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

func (s *Set) checkSameLen(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: length mismatch %d != %d", s.n, t.n))
	}
}

// ForEachSet calls fn for every set bit in ascending order. If fn returns
// false, iteration stops early.
func (s *Set) ForEachSet(fn func(i uint64) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := uint64(bits.TrailingZeros64(w))
			if !fn(uint64(wi)*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// ForEachClear calls fn for every clear bit in ascending order. If fn
// returns false, iteration stops early.
func (s *Set) ForEachClear(fn func(i uint64) bool) {
	for wi := range s.words {
		w := ^s.words[wi]
		for w != 0 {
			b := uint64(bits.TrailingZeros64(w))
			i := uint64(wi)*wordBits + b
			if i >= s.n {
				return
			}
			if !fn(i) {
				return
			}
			w &= w - 1
		}
	}
}

// SizeBytes returns the in-memory size of the backing array in bytes.
func (s *Set) SizeBytes() uint64 { return uint64(len(s.words)) * 8 }

// MarshalBinary encodes the bit vector as an 8-byte little-endian length
// followed by the packed words.
func (s *Set) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 8+len(s.words)*8)
	binary.LittleEndian.PutUint64(buf, s.n)
	for i, w := range s.words {
		binary.LittleEndian.PutUint64(buf[8+i*8:], w)
	}
	return buf, nil
}

// EncodedLen returns the length of MarshalBinary's encoding of an n-bit
// vector, for readers that find one inside a larger stream.
func EncodedLen(n uint64) uint64 { return 8 + 8*(n/wordBits+min(n%wordBits, 1)) }

// ErrCorrupt is returned by UnmarshalBinary when the encoding is malformed.
var ErrCorrupt = errors.New("bitset: corrupt encoding")

// UnmarshalBinary decodes a vector produced by MarshalBinary.
func (s *Set) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return ErrCorrupt
	}
	n := binary.LittleEndian.Uint64(data)
	if uint64(len(data)) != EncodedLen(n) {
		return ErrCorrupt
	}
	s.n = n
	s.words = make([]uint64, len(data)/8-1)
	for i := range s.words {
		s.words[i] = binary.LittleEndian.Uint64(data[8+i*8:])
	}
	s.maskTail()
	s.invalidate()
	return nil
}

// String renders the vector as a left-to-right bit string (bit 0 first),
// truncated with an ellipsis beyond 128 bits. Intended for debugging.
func (s *Set) String() string {
	n := s.n
	trunc := false
	if n > 128 {
		n, trunc = 128, true
	}
	b := make([]byte, 0, n+3)
	for i := uint64(0); i < n; i++ {
		if s.Test(i) {
			b = append(b, '1')
		} else {
			b = append(b, '0')
		}
	}
	if trunc {
		b = append(b, '.', '.', '.')
	}
	return string(b)
}
