package hashfam

import "math/bits"

// The fast family: one 128-bit multiply-fold mix per key, split into k
// indices via enhanced double hashing. This is the hardware-friendly
// default the hot probe path runs on — every membership probe during
// sampling descent, reconstruction and intersection estimation bottoms
// out in Positions, so its cost multiplies through the whole system.
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
// key via double hashing.
type fastFamily struct {
	m    uint64
	k    int
	seed uint64
}

func newFast(m uint64, k int, seed uint64) *fastFamily {
	return &fastFamily{m: m, k: k, seed: seed}
}

func (f *fastFamily) Kind() Kind   { return KindFast }
func (f *fastFamily) K() int       { return f.k }
func (f *fastFamily) M() uint64    { return f.m }
func (f *fastFamily) Seed() uint64 { return f.seed }

func (f *fastFamily) Positions(x uint64, out []uint64) []uint64 {
	h1, h2 := Mix128(x, f.seed)
	return doublePositions(h1, h2, f.m, f.k, out)
}

// PositionsMany hashes every key of xs in one call, appending k positions
// per key. The per-key cost is one inlined Mix128 plus the double-hashing
// split — no interface dispatch, no buffer setup — so bulk probe loops
// (leaf scans, batch ingest) amortize all per-call overhead across the
// batch.
func (f *fastFamily) PositionsMany(xs []uint64, out []uint64) []uint64 {
	m, k, seed := f.m, f.k, f.seed
	for _, x := range xs {
		h1, h2 := Mix128(x, seed)
		out = doublePositions(h1, h2, m, k, out)
	}
	return out
}

// Contains is the early-exit probe of one id: mix the first fold, reduce it
// to the first position and test that bit; only an id that passes pays for
// the second fold and its other k−1 positions, each tested as it is
// derived. A query filter is mostly zeros (a filter planned for accuracy
// 0.9 is about a tenth full), so nine ids in ten cost one multiply, one
// modulo and one load, and no position is ever stored. The positions are
// doublePositions', in its order.
func (f *fastFamily) Contains(words []uint64, x uint64) bool {
	h1, pos, set := firstSet(words, x, f.m, f.seed)
	return set && strideSet(words, pos, doubleStep(mixSecond(h1, x, f.seed), f.m), f.m, f.k)
}

// firstSet tests the first position of x, and strideSet positions 2..k of
// the double-hashing sequence that starts there. Contains is written as the
// two so that each is small enough to inline into the range scan's loop.
func firstSet(words []uint64, x, m, seed uint64) (h1, pos uint64, set bool) {
	h1 = mixFirst(x, seed)
	pos = h1 % m
	return h1, pos, words[pos/64]&(1<<(pos%64)) != 0
}

func strideSet(words []uint64, pos, step, m uint64, k int) bool {
	for i := 1; i < k; i++ {
		pos += step
		if pos >= m {
			pos -= m
		}
		if words[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// AppendPositives is the leaf scan fused into one loop: Contains, inlined,
// for each id of [lo, hi).
func (f *fastFamily) AppendPositives(words []uint64, lo, hi uint64, out []uint64) []uint64 {
	m, k, seed := f.m, f.k, f.seed
	for x := lo; x < hi; x++ {
		h1, pos, set := firstSet(words, x, m, seed)
		if set && strideSet(words, pos, doubleStep(mixSecond(h1, x, seed), m), m, k) {
			out = append(out, x)
		}
	}
	return out
}

var (
	_ BatchFamily = (*fastFamily)(nil)
	_ RangeProber = (*fastFamily)(nil)
)
