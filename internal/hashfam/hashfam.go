// Package hashfam implements the families of Bloom-filter hash functions
// the paper evaluates (§7.1): the "Simple" affine family (a·x+b) mod m,
// which is weakly invertible; MurmurHash3 (implemented from scratch, x64
// 128-bit variant); and MD5 (via crypto/md5, kept as an opt-in
// compatibility kind). One hardware-friendly family is added to them:
// KindFast (the default — one 128-bit multiply-fold mix per key, see
// fast.go). Families implementing BatchFamily additionally expose a
// batched PositionsMany path that amortizes per-key setup across bulk
// probe loops.
//
// A Family maps a namespace element x (a uint64) to k positions in
// [0, m). Families are deterministic given (kind, m, k, seed), so that a
// BloomSampleTree and the query Bloom filters it serves can be built with
// identical hash functions, as the paper requires (§5.1).
//
// Only KindFast reduces a hash to [0, m) by reciprocal (fastReduce: a
// multiply and one conditional subtraction, held to the hardware remainder
// by FuzzFastReduce); it is the default and what every served path runs.
// KindSimple, KindMurmur3 and KindMD5 reduce with %, and stay so: they are
// kept for what they compute, not for speed. Simple's positions are
// (a·x + b) mod c, the arithmetic HashInvert inverts (§4); Murmur3 and MD5
// positions are persisted in filters that embed their kind, and Figure 7
// sweeps the families as the paper defines them.
package hashfam

import (
	"fmt"
	"math/bits"
)

// Kind identifies a hash-function family.
type Kind string

// Supported family kinds.
const (
	KindFast    Kind = "fast"    // 128-bit multiply-fold mix + double hashing (default)
	KindSimple  Kind = "simple"  // (a·x + b) mod m, weakly invertible
	KindMurmur3 Kind = "murmur3" // MurmurHash3 x64_128 + double hashing
	KindMD5     Kind = "md5"     // crypto/md5 + double hashing (compatibility only)
)

// DefaultKind is the family every layer that picks a default uses: the
// fast multiply-fold family. KindMD5 — the paper's deliberately expensive
// comparison point — and the others remain constructible for
// compatibility (persisted databases embed their kind) and for the
// Figure 7 family sweep, but nothing defaults to them.
const DefaultKind = KindFast

// Kinds lists every supported family kind.
func Kinds() []Kind { return []Kind{KindFast, KindSimple, KindMurmur3, KindMD5} }

// Family is a set of k hash functions h_1..h_k, each mapping namespace
// elements to bit positions in [0, m).
type Family interface {
	// Kind returns the family identifier.
	Kind() Kind
	// K returns the number of hash functions.
	K() int
	// M returns the range of each function (the Bloom filter size in bits).
	M() uint64
	// Seed returns the seed the family was derived from.
	Seed() uint64
	// Positions appends the k positions h_1(x)..h_k(x) to out and returns
	// the extended slice. Positions(x, nil) allocates.
	Positions(x uint64, out []uint64) []uint64
}

// BatchFamily is implemented by families with a batched positions path.
// PositionsMany is semantically equivalent to calling Positions on each
// element of xs in order, but amortizes per-key setup (interface
// dispatch, digest buffers) across the batch. Use the package-level
// PositionsMany helper to get the fallback loop for families without a
// native implementation.
type BatchFamily interface {
	Family
	// PositionsMany appends, for each x in xs in order, the k positions
	// h_1(x)..h_k(x) to out and returns the extended slice (k·len(xs)
	// appended positions in total).
	PositionsMany(xs []uint64, out []uint64) []uint64
}

// PositionsMany hashes every key of xs with f, appending k positions per
// key to out, using the family's native batched path when it has one.
func PositionsMany(f Family, xs []uint64, out []uint64) []uint64 {
	if bf, ok := f.(BatchFamily); ok {
		return bf.PositionsMany(xs, out)
	}
	for _, x := range xs {
		out = f.Positions(x, out)
	}
	return out
}

// RangeProber is implemented by families that can probe an id, or a
// contiguous range of them, against a bit vector without materializing
// positions, looking no further into an id's positions than its first
// missing bit. It must report exactly the ids for which every position
// Positions yields is set. In both methods bit p is bit p%64 of words[p/64]
// and words covers all M() bits.
type RangeProber interface {
	Family
	// Contains reports whether the k positions of x are all set in words.
	Contains(words []uint64, x uint64) bool
	// AppendPositives appends to out, ascending, every x of [lo, hi) that
	// Contains accepts. How it orders the work is its own business — the
	// fast family tests the first position of a block of ids before the
	// later positions of any of them.
	AppendPositives(words []uint64, lo, hi uint64, out []uint64) []uint64
}

// Invertible is implemented by families whose functions are weakly
// invertible in the paper's sense (§4): given a position p and an index i,
// the set {y : h_i(y) = p} can be enumerated efficiently.
type Invertible interface {
	Family
	// Preimages appends, in ascending order, every y in [lo, hi) with
	// h_i(y) = pos, and returns the extended slice. i is zero-based and
	// must be < K().
	Preimages(i int, pos uint64, lo, hi uint64, out []uint64) []uint64
}

// New constructs a family of k functions with range m, deterministically
// derived from seed. It returns an error for unknown kinds or degenerate
// parameters.
func New(kind Kind, m uint64, k int, seed uint64) (Family, error) {
	if m < 2 {
		return nil, fmt.Errorf("hashfam: m = %d, need m >= 2", m)
	}
	if k < 1 {
		return nil, fmt.Errorf("hashfam: k = %d, need k >= 1", k)
	}
	switch kind {
	case KindFast:
		return newFast(m, k, seed), nil
	case KindSimple:
		return newSimple(m, k, seed), nil
	case KindMurmur3:
		return newMurmur3(m, k, seed), nil
	case KindMD5:
		return newMD5(m, k, seed), nil
	default:
		return nil, fmt.Errorf("hashfam: unknown kind %q", kind)
	}
}

// MustNew is New but panics on error; for use with known-good parameters.
func MustNew(kind Kind, m uint64, k int, seed uint64) Family {
	f, err := New(kind, m, k, seed)
	if err != nil {
		panic(err)
	}
	return f
}

// doubleStep reduces h2 to the stride of the double-hashing sequence.
func doubleStep(h2, m uint64) uint64 {
	h2 |= 1
	h2 %= m
	if h2 == 0 {
		h2 = 1
	}
	return h2
}

// splitmix64 is a fast, well-distributed PRNG step used for deterministic
// parameter derivation from seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// doublePositions fills k positions using Kirsch–Mitzenmacher double
// hashing: pos_i = (h1 + i·h2) mod m, with h2 forced odd so that the probe
// sequence cycles through many residues even for composite m.
func doublePositions(h1, h2, m uint64, k int, out []uint64) []uint64 {
	return stridePositions(h1%m, doubleStep(h2, m), m, k, out)
}

// stridePositions appends the k positions of the sequence that starts at
// pos < m and advances by step < m, modulo m.
func stridePositions(pos, step, m uint64, k int, out []uint64) []uint64 {
	for i := 0; i < k; i++ {
		out = append(out, pos)
		pos = wrap(pos+step, m)
	}
	return out
}

// wrap returns r mod m for r < 2m: r − m when r ≥ m, r otherwise. Which
// side of m a hashed position falls is a coin toss no branch predictor
// wins — and an "if", or min(r, r−m), compiles to a branch — so m is
// added back under the mask of the subtraction's borrow instead.
func wrap(r, m uint64) uint64 {
	d, borrow := bits.Sub64(r, m, 0)
	return d + m&-borrow
}
