package hashfam

import "math/bits"

// The fast family: one 128-bit multiply-fold mix per key, split into k
// indices via enhanced double hashing. This is the hardware-friendly
// default the hot probe path runs on — every membership probe during
// sampling descent and reconstruction bottoms out in its position
// sequence, so its cost multiplies through the whole system. The sequence
// has one definition — Mix128's two folds, fastReduce, fastStep, a stride
// that wraps at m — in three shapes: Positions and PositionsMany store it,
// Contains tests it position by position and stops at the first clear bit,
// and AppendPositives sieves a range by first position before it looks at
// the rest. Nothing on the path divides or branches on where a hash fell.
//
// The mix is wyhash/xxh3-style: the key's 8-byte little-endian encoding
// is folded through two 64×64→128-bit multiplies (bits.Mul64 compiles to
// a single MUL on amd64/arm64), XOR-folding each product's halves. Unlike
// the MurmurHash3 family it never materializes a byte buffer and has no
// per-call tail/finalizer branching: a fixed-width key takes the fixed
// fast path unconditionally. Unlike MD5 (kept as an opt-in compatibility
// kind for the paper's Figure 7 comparison) it is a few nanoseconds, not
// a cryptographic digest.

// Multiply-fold constants, from wyhash's default secret (64-bit primes
// with balanced bit patterns).
const (
	fastP0 = 0xa0761d6478bd642f
	fastP1 = 0xe7037ed1a0b428db
	fastP2 = 0x8ebc6af09c88c6e3
	fastP3 = 0x589965cc75374cc3
)

// Mix128 mixes a 64-bit key and seed into a 128-bit result via two
// multiply-folds. The second fold consumes the first's output, so the two
// halves are not independent affine images of x — exactly what enhanced
// double hashing needs from its (h1, h2) pair. Exported so reference
// vectors and the uniformity tests can pin the mapping.
func Mix128(x, seed uint64) (h1, h2 uint64) {
	h1 = mixFirst(x, seed)
	return h1, mixSecond(h1, x, seed)
}

// mixFirst and mixSecond are Mix128's two folds apart, for the range probe
// that wants h2 only for the keys whose first bit is set.
func mixFirst(x, seed uint64) uint64 {
	hi, lo := bits.Mul64(x^fastP1, seed^fastP0)
	return hi ^ lo
}

func mixSecond(h1, x, seed uint64) uint64 {
	hi, lo := bits.Mul64(h1^fastP2, x^seed^fastP3)
	return hi ^ lo
}

// fastFamily derives k Bloom-filter positions from one Mix128 call per
// key via double hashing: doublePositions' sequence, reduced by fastReduce.
type fastFamily struct {
	m    uint64
	inv  uint64 // ⌊(2⁶⁴−1)/m⌋, fastReduce's reciprocal
	k    int
	seed uint64
}

func newFast(m uint64, k int, seed uint64) *fastFamily {
	return &fastFamily{m: m, inv: fastReciprocal(m), k: k, seed: seed}
}

// fastReciprocal returns the inv fastReduce divides by m with.
func fastReciprocal(m uint64) uint64 { return ^uint64(0) / m }

// fastReduce returns h mod m, for every h and every m ≥ 2, without a
// divide: the one reduction every position of the family goes through, so
// a hardware divide (tens of cycles, unpipelined) never sits under a
// probe. With 2⁶⁴−1 = inv·m + e, 0 ≤ e < m, the estimate q = ⌊h·inv/2⁶⁴⌋
// falls short of h/m by h/2⁶⁴ · (1+e)/m < 1, so q is the quotient or one
// less, h − q·m lies in [0, 2m) — below 2⁶⁴, being at most h — and one
// conditional subtraction finishes.
func fastReduce(h, m, inv uint64) uint64 {
	q, _ := bits.Mul64(h, inv)
	r := h - q*m
	return wrap(r, m)
}

// fastStep is doubleStep through fastReduce.
func fastStep(h2, m, inv uint64) uint64 {
	step := fastReduce(h2|1, m, inv)
	if step == 0 {
		step = 1
	}
	return step
}

func (f *fastFamily) Kind() Kind   { return KindFast }
func (f *fastFamily) K() int       { return f.k }
func (f *fastFamily) M() uint64    { return f.m }
func (f *fastFamily) Seed() uint64 { return f.seed }

func (f *fastFamily) Positions(x uint64, out []uint64) []uint64 {
	h1, h2 := Mix128(x, f.seed)
	return stridePositions(fastReduce(h1, f.m, f.inv), fastStep(h2, f.m, f.inv), f.m, f.k, out)
}

// PositionsMany hashes every key of xs in one call, appending k positions
// per key. The per-key cost is one inlined Mix128 plus the double-hashing
// split — no interface dispatch, no buffer setup — so bulk probe loops
// (leaf scans, batch ingest) amortize all per-call overhead across the
// batch.
func (f *fastFamily) PositionsMany(xs []uint64, out []uint64) []uint64 {
	m, inv, k, seed := f.m, f.inv, f.k, f.seed
	for _, x := range xs {
		h1, h2 := Mix128(x, seed)
		out = stridePositions(fastReduce(h1, m, inv), fastStep(h2, m, inv), m, k, out)
	}
	return out
}

// Contains is the early-exit probe of one id: mix the first fold, reduce it
// to the first position and test that bit; only an id that passes pays for
// the second fold and its other k−1 positions, each tested as it is
// derived. A query filter is mostly zeros (a filter planned for accuracy
// 0.9 is about a tenth full), so nine ids in ten cost two multiplies for
// the mix, two for the reduction and one load, and no position is ever
// stored. The positions are Positions', in its order.
func (f *fastFamily) Contains(words []uint64, x uint64) bool {
	h1 := mixFirst(x, f.seed)
	pos := fastReduce(h1, f.m, f.inv)
	return words[pos/64]&(1<<(pos%64)) != 0 &&
		strideSet(words, pos, fastStep(mixSecond(h1, x, f.seed), f.m, f.inv), f.m, f.k)
}

// strideSet tests positions 2..k of the double-hashing sequence that starts
// at pos, each as it is derived. It is small enough to inline into the
// range scan's loop.
func strideSet(words []uint64, pos, step, m uint64, k int) bool {
	for i := 1; i < k; i++ {
		pos = wrap(pos+step, m)
		if words[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// sieveBlock is the number of ids the range scan sieves at a time: one
// mask word's worth.
const sieveBlock = 64

// AppendPositives is the leaf scan in two phases over blocks of sieveBlock
// ids. firstMask sieves a block by first position alone, with no branch
// that depends on the data; then only the ids it let through — about the
// filter's fill ratio, a tenth — are walked, ascending, through the second
// fold and the other k−1 positions, as Contains does. One loop doing both
// mispredicts its "first bit set?" branch for that tenth, and a miss costs
// more than the probe.
func (f *fastFamily) AppendPositives(words []uint64, lo, hi uint64, out []uint64) []uint64 {
	m, inv, k, seed := f.m, f.inv, f.k, f.seed
	for ; lo < hi; lo += sieveBlock {
		n := int(min(sieveBlock, hi-lo))
		for mask := firstMask(words, lo, n, m, inv, seed); mask != 0; mask &= mask - 1 {
			x := lo + uint64(bits.TrailingZeros64(mask))
			h1 := mixFirst(x, seed)
			if strideSet(words, fastReduce(h1, m, inv), fastStep(mixSecond(h1, x, seed), m, inv), m, k) {
				out = append(out, x)
			}
		}
	}
	return out
}

// firstMask returns the mask whose bit i says that the first position of
// id lo+i, i < n ≤ 64, is set in words: mix, reduce, load, shift-or, and
// no branch on what was loaded. It is kept out of line on purpose: on its
// own the loop keeps m, inv, seed and the mask in registers, which inside
// AppendPositives' loop nest, beside out and the walk's temporaries, they
// do not.
//
//go:noinline
func firstMask(words []uint64, lo uint64, n int, m, inv, seed uint64) uint64 {
	var mask uint64
	for i := n - 1; i >= 0; i-- {
		pos := fastReduce(mixFirst(lo+uint64(i), seed), m, inv)
		mask = mask<<1 | words[pos/64]>>(pos%64)&1
	}
	return mask
}

var (
	_ BatchFamily = (*fastFamily)(nil)
	_ RangeProber = (*fastFamily)(nil)
)
