package core

import (
	"bufio"
	"encoding/binary"
	"math"
	mbits "math/bits"
	"slices"

	"repro/internal/bitset"
	"repro/internal/bloom"
	"repro/internal/hashfam"
)

// nodeFilter is a tree node's bits in the form the node holds them, one of
// two, chosen by one rule: a node with fewer set bits than its dense vector
// has words (m/64) holds their positions, ascending, in pos; any other node
// holds the dense filter. The rule is applied where a node's bits are
// counted (holdVector, unitePositions). Below that line the positions take
// under half the vector's bytes (4 a position against m/8), and an estimate
// tests fewer positions than the AND-popcount reads words. A pruned tree's
// leaves in a low-occupancy namespace are such nodes, and so the tree's
// memory follows its occupancy (§5.2, §8).
//
// The form is a function of the bits alone — every constructor goes through
// the rule, and a node's bits only grow — so two nodes hold the same bits
// exactly when they hold equal values of one form (equal). Every estimate
// and verdict is the one the dense vector gives: t₁ is the number of
// positions and t∧ the number of them set in the query's words, fed to the
// same estimator.
//
// A nodeFilter is immutable once published, like the filter it stands for:
// growth makes a new one (a fresh position list, a copy-on-write clone).
type nodeFilter struct {
	dense *bloom.Filter // nil while the node is sparse
	pos   []uint32      // the set positions, ascending, while it is sparse
}

// words is the length in words of a node's dense vector: a node with fewer
// set bits holds their positions.
func (t *Tree) words() uint64 { return (t.cfg.Bits + 63) / 64 }

// holdVector returns the node filter of the bits of a dense vector, which it
// takes: the rule, applied where the bits are counted. A node with fewer set
// bits than words() holds their positions, any other the vector.
func (t *Tree) holdVector(bits *bitset.Set) nodeFilter {
	if c := bits.Count(); c < t.words() {
		return nodeFilter{pos: positionsIn(bits.Raw(), c)}
	}
	return nodeFilter{dense: bloom.NewFromBits(t.fam, bits)}
}

// positionsIn returns the positions of the n bits set in words, ascending,
// in a list of exactly their number.
func positionsIn(words []uint64, n uint64) []uint32 {
	out := make([]uint32, n+2)
	k := 0
	for i, w := range words {
		// Two slots a word, written whether or not the word has that many
		// bits, and k moved by the ones it has: a vector of fewer set bits
		// than words holds less than one a word, and only a word of three
		// or more (one in twenty) branches.
		c, base := mbits.OnesCount64(w), uint32(i*64)
		o := out[k : k+2 : k+2]
		o[0] = base + uint32(mbits.TrailingZeros64(w))
		w &= w - 1
		o[1] = base + uint32(mbits.TrailingZeros64(w))
		w &= w - 1
		k += c
		for j := k - c + 2; w != 0; j++ {
			out[j] = base + uint32(mbits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out[:n:n]
}

// add returns f with ids inserted and whether that changed its bits; when it
// did not, f itself. A dense node takes them by CloneAdd, which shares its
// vector when no bit changes; a sparse one hashes them and unites their
// positions with its own (unitePositions).
func (t *Tree) add(f *nodeFilter, ids []uint64) (nodeFilter, bool) {
	if f.dense != nil {
		next := f.dense.CloneAdd(ids...)
		return nodeFilter{dense: next}, next.Bits() != f.dense.Bits()
	}
	return t.unitePositions(f.pos, t.positionsOf(ids))
}

// positionsOf returns the bit positions of ids, k an id in id order, as
// uint32s.
func (t *Tree) positionsOf(ids []uint64) []uint32 {
	k := t.fam.K()
	pos := make([]uint32, 0, len(ids)*k)
	buf := make([]uint64, 0, min(len(ids), bloom.ProbeBlock)*k)
	for len(ids) > 0 {
		n := min(len(ids), bloom.ProbeBlock)
		buf = hashfam.PositionsMany(t.fam, ids[:n], buf[:0])
		for _, p := range buf {
			pos = append(pos, uint32(p))
		}
		ids = ids[n:]
	}
	return pos
}

// unitePositions returns the node filter of the union of pos (ascending and
// distinct, a sparse node's) and more (in any order, repeats allowed), and
// whether the union has a bit pos lacks; pos itself when it has none. The
// union is formed in a vector of m bits from the tree's scratch pool: both
// lists are set into it, counting the bits more sets first, and the count
// is the rule's. Below words() the positions are read back out
// (positionsIn) and the vector is cleared and goes back to the pool; from
// there the vector is the dense node's own. The work is one pass over the positions and one over
// the m/64 words, what a dense node's copy-on-write costs, however the new
// positions fall.
func (t *Tree) unitePositions(pos, more []uint32) (nodeFilter, bool) {
	words := t.scratchWords()
	setPositions(words, pos)
	fresh := 0
	for _, p := range more {
		w, s := &words[p/64], p%64
		fresh += int(^*w >> s & 1) // counted without a branch: which bits are new is data
		*w |= 1 << s
	}
	n := uint64(len(pos) + fresh)
	switch {
	case fresh == 0:
		clear(words)
		t.scratch.Put(&words)
		return nodeFilter{pos: pos}, false
	case n >= t.words():
		return nodeFilter{dense: bloom.NewFromBits(t.fam, bitset.FromWords(t.cfg.Bits, words))}, true
	}
	out := positionsIn(words, n)
	clear(words)
	t.scratch.Put(&words)
	return nodeFilter{pos: out}, true
}

// scratchWords returns an all-zero vector of m bits' words from the tree's
// pool, or a new one.
func (t *Tree) scratchWords() []uint64 {
	if p, ok := t.scratch.Get().(*[]uint64); ok {
		return *p
	}
	return make([]uint64, t.words())
}

// setPositions sets the bits at pos in words.
func setPositions(words []uint64, pos []uint32) {
	for _, p := range pos {
		words[p/64] |= 1 << (p % 64)
	}
}

// union returns the filter of n's children's union (§3.1), which every
// internal node holds; in a pruned tree one child may be missing, and the
// other's bits are copied. Two sparse children's positions are united
// (unitePositions), a sparse child's are set into a copy of its dense
// sibling's vector, and two dense vectors are ORed. A union with a dense
// child holds at least its set bits, so it is dense.
func (t *Tree) union(n *node) nodeFilter {
	left, right := n.children()
	switch {
	case left == nil:
		return right.filter().clone()
	case right == nil:
		return left.filter().clone()
	}
	a, b := left.filter(), right.filter()
	if a.dense == nil && b.dense == nil {
		u, grew := t.unitePositions(a.pos, b.pos)
		if !grew {
			return a.clone() // b adds nothing: u is a's own list
		}
		return u
	}
	if a.dense == nil {
		a, b = b, a
	}
	if b.dense != nil {
		return nodeFilter{dense: bloom.NewFromBits(t.fam, a.dense.Bits().Or(b.dense.Bits()))}
	}
	src := a.dense.Bits().Raw()
	words := make([]uint64, len(src))
	copy(words, src) // one allocation, not zeroed first
	setPositions(words, b.pos)
	return nodeFilter{dense: bloom.NewFromBits(t.fam, bitset.FromWords(t.cfg.Bits, words))}
}

// clone returns a copy of f that shares nothing with it.
func (f *nodeFilter) clone() nodeFilter {
	if f.dense != nil {
		return nodeFilter{dense: f.dense.Clone()}
	}
	return nodeFilter{pos: slices.Clone(f.pos)}
}

// equal reports whether f and g hold the same bits. Since the form is a
// function of the bits, filters of different forms hold different bits.
func (f *nodeFilter) equal(g *nodeFilter) bool {
	if (f.dense == nil) != (g.dense == nil) {
		return false
	}
	if f.dense != nil {
		return f.dense.Bits().Equal(g.dense.Bits())
	}
	return slices.Equal(f.pos, g.pos)
}

// count returns the number of set bits, t₁.
func (f *nodeFilter) count() uint64 {
	if f.dense != nil {
		return f.dense.SetBits()
	}
	return uint64(len(f.pos))
}

// bytes returns what the node holds: 4 bytes a position, or the dense
// vector's m/8.
func (f *nodeFilter) bytes() uint64 {
	if f.dense != nil {
		return f.dense.SizeBytes()
	}
	return 4 * uint64(len(f.pos))
}

// estimate returns bloom.EstimateIntersectionOf of the node's bits and q.
func (f *nodeFilter) estimate(q *bloom.Filter) float64 {
	if f.dense != nil {
		return bloom.EstimateIntersectionOf(f.dense, q)
	}
	tand := setIn(f.pos, q.Bits().Raw(), math.MaxUint64)
	if tand == 0 {
		return 0
	}
	return bloom.EstimateIntersection(q.M(), q.K(), uint64(len(f.pos)), q.SetBits(), tand)
}

// atLeast returns bloom.IntersectionAtLeast of the node's bits, q and thr: a
// sparse node counts its positions set in q until the count reaches the t∧
// the verdict needs.
func (f *nodeFilter) atLeast(q *bloom.Filter, thr float64) bool {
	if f.dense != nil {
		return bloom.IntersectionAtLeast(f.dense, q, thr)
	}
	m, t1, t2 := q.M(), uint64(len(f.pos)), q.SetBits()
	if t1+t2 > m {
		return f.estimate(q) >= thr
	}
	need := bloom.IntersectionNeed(m, q.K(), t1, t2, thr)
	return need <= min(t1, t2) && setIn(f.pos, q.Bits().Raw(), need) >= need
}

// intersectsAny reports whether the node and q share a set bit.
func (f *nodeFilter) intersectsAny(q *bloom.Filter) bool {
	if f.dense != nil {
		return f.dense.IntersectsAny(q)
	}
	return setIn(f.pos, q.Bits().Raw(), 1) > 0
}

// setIn returns how many of pos are set in words, a sparse node's t∧,
// looking at the count between blocks of 64 positions and stopping at the
// first where it has reached need.
func setIn(pos []uint32, words []uint64, need uint64) (c uint64) {
	for len(pos) > 0 && c < need {
		n := min(len(pos), 64)
		for _, p := range pos[:n] {
			c += words[p/64] >> (p % 64) & 1
		}
		pos = pos[n:]
	}
	return c
}

// writeTo writes the node's bits as the dense vector of m bits encodes
// (bitset.Set's MarshalBinary), whatever the form: a tree's stream does not
// say how it was held.
func (f *nodeFilter) writeTo(w *bufio.Writer, m uint64) error {
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], m)
	if _, err := w.Write(word[:]); err != nil {
		return err
	}
	var dense []uint64
	if f.dense != nil {
		dense = f.dense.Bits().Raw()
	}
	pos := f.pos
	for i := uint64(0); i < (m+63)/64; i++ {
		var x uint64
		if dense != nil {
			x = dense[i]
		}
		for ; len(pos) > 0 && uint64(pos[0])/64 == i; pos = pos[1:] {
			x |= 1 << (pos[0] % 64)
		}
		binary.LittleEndian.PutUint64(word[:], x)
		if _, err := w.Write(word[:]); err != nil {
			return err
		}
	}
	return nil
}
