package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	mbits "math/bits"

	"repro/internal/bitset"
	"repro/internal/bloom"
	"repro/internal/hashfam"
)

// nodeFilter is a tree node's bits in the form the node holds them, one of
// two, chosen by one rule: a node with fewer set bits than sparseLine a word
// of its dense vector (2·m/64) holds their positions, ascending, as a gap
// code (see codeNoted) with their number beside it; any other node holds the
// dense filter. The rule is applied where a node's bits are counted
// (holdVector, hold). Below that line the code takes about a byte
// a position, at most about a quarter of the vector's m/8, and an estimate
// tests fewer positions than two sparse children hold. A pruned tree's
// leaves in a low-occupancy namespace, and the nodes just above them, are
// such nodes, and so the tree's memory follows its occupancy (§5.2, §8).
//
// The form is a function of the bits alone — every constructor goes through
// the rule, a node's bits only grow, and the code of a list of positions is
// one — so two nodes hold the same bits exactly when they hold equal values
// of one form (equal). Every estimate and verdict is the one the dense
// vector gives: t₁ is the number of positions and t∧ the number of them set
// in the query's words, fed to the same estimator.
//
// A nodeFilter is immutable once published, like the filter it stands for:
// growth makes a new one (a fresh code, a copy-on-write clone).
type nodeFilter struct {
	dense *bloom.Filter // nil while the node is sparse
	code  []byte        // the set positions' gaps, coded, while it is sparse
	n     uint64        // the number of positions code holds
}

// sparseLine is the set bits a word of its dense vector that a sparse node
// holds fewer of, on average: the rule's line is sparseLine·m/64 set bits.
const sparseLine = 2

// words is the length in words of a node's dense vector.
func (t *Tree) words() uint64 { return (t.cfg.Bits + 63) / 64 }

// line is the rule's line: a node with fewer set bits holds their positions.
func (t *Tree) line() uint64 { return sparseLine * t.words() }

// escape is the code byte of a gap too long for one byte: the gap's 32 bits
// follow it, little-endian.
const escape = 0xff

// slack is the bytes past a code's end that codeNoted may write.
const slack = 2

// codeNoted codes the set bits of the words noted in notes (a bit a word of
// words), ascending, into buf, which has room for five bytes a position and
// slack more, and returns the bytes written.
//
// A position p after last is coded as its gap p − last − 1 (last starts at
// −1, so the first position is coded as itself): in one byte below escape,
// otherwise as escape and the gap's 32 bits, little-endian. Only a word's
// first gap can need the escape, since the others are below 64. A word's
// first three gaps are written whether or not it has that many bits, and k
// moves by the ones it has, so only a long first gap or a word of four bits
// or more branches: which words hold how many bits is data, and a branch on
// it would be mispredicted. Growth codes every sparse node a batch touches
// here, and with a plain loop over each word's bits BenchmarkInsertBatch/batch
// reads ≈ 20 % slower.
func codeNoted(buf []byte, words, notes []uint64) (k int) {
	last := uint32(math.MaxUint32)
	for ni, nw := range notes {
		for ; nw != 0; nw &= nw - 1 {
			i := ni*64 + mbits.TrailingZeros64(nw)
			w, base := words[i], uint32(i*64)
			p := base + uint32(mbits.TrailingZeros64(w))
			if v := p - last - 1; v < escape {
				buf[k] = byte(v)
				k++
			} else {
				buf[k] = escape
				binary.LittleEndian.PutUint32(buf[k+1:k+5], v)
				k += 5
			}
			c := mbits.OnesCount64(w)
			last = base + 63 - uint32(mbits.LeadingZeros64(w))
			w &= w - 1
			q := base + uint32(mbits.TrailingZeros64(w)) // past the word when it has one bit
			w &= w - 1
			r := base + uint32(mbits.TrailingZeros64(w))
			b := buf[k : k+2 : k+2]
			b[0], b[1] = byte(q-p-1), byte(r-q-1)
			k += min(c, 3) - 1
			if c > 3 {
				for w &= w - 1; w != 0; w &= w - 1 {
					q := base + uint32(mbits.TrailingZeros64(w))
					buf[k] = byte(q - r - 1)
					k++
					r = q
				}
			}
		}
	}
	return k
}

// all yields a sparse node's positions in ascending order, reading the
// code (setIn reads it the same way, written out).
func (f *nodeFilter) all(yield func(uint32) bool) {
	code, p := f.code, uint32(math.MaxUint32)
	for i := 0; i < len(code); i++ {
		v := uint32(code[i])
		if v == escape {
			v = binary.LittleEndian.Uint32(code[i+1 : i+5])
			i += 4
		}
		p += v + 1
		if !yield(p) {
			return
		}
	}
}

// holdVector returns the node filter of the bits of a dense vector, which it
// takes: the rule, applied where the bits are counted. A node with fewer set
// bits than line() holds their code, any other the vector.
func (t *Tree) holdVector(bits *bitset.Set) nodeFilter {
	c := bits.Count()
	if c >= t.line() {
		return nodeFilter{dense: bloom.NewFromBits(t.fam, bits)}
	}
	words := bits.Raw()
	notes := make([]uint64, (len(words)+63)/64)
	for i, w := range words {
		notes[i/64] |= min(w, 1) << (i % 64)
	}
	buf := make([]byte, 5*c+slack)
	return nodeFilter{code: bytes.Clone(buf[:codeNoted(buf, words, notes)]), n: c}
}

// add returns f with ids inserted and whether that changed its bits; when it
// did not, f itself. A dense node takes them by CloneAdd, which shares its
// vector when no bit changes; a sparse one unites its positions with the
// ids' in a scratch (uniteIn).
func (t *Tree) add(f *nodeFilter, ids []uint64) (nodeFilter, bool) {
	if f.dense != nil {
		next := f.dense.CloneAdd(ids...)
		return nodeFilter{dense: next}, next.Bits() != f.dense.Bits()
	}
	s := t.scratchFor()
	defer t.release(s)
	return t.uniteIn(s, f, ids)
}

// uniteIn forms the union of f (a sparse node) and the positions of ids in
// s, an all-zero scratch: f's positions are set into its vector, then the
// ids', counting the bits they set first, and the count is the rule's
// (hold). It returns the union's node filter and whether it has a bit f
// lacks (f itself when it has none). The work is one pass over the
// positions and one over the words they fall in, however they fall: no
// pass over the m/64 words.
func (t *Tree) uniteIn(s *scratch, f *nodeFilter, ids []uint64) (nodeFilter, bool) {
	s.set(f)
	var fresh uint64
	for len(ids) > 0 {
		n := min(len(ids), bloom.ProbeBlock)
		s.hashed = hashfam.PositionsMany(t.fam, ids[:n], s.hashed[:0])
		for _, p := range s.hashed {
			w, b := &s.words[p/64], p%64
			fresh += ^*w >> b & 1 // counted without a branch: which bits are new is data
			*w |= 1 << b
			s.notes[p/4096] |= 1 << (p / 64 % 64)
		}
		ids = ids[n:]
	}
	if fresh == 0 {
		return *f, false
	}
	return t.hold(s, f.n+fresh), true
}

// hold returns the node filter of the n bits s holds: the rule, applied
// where the bits were counted. Below line() the noted words are coded
// (codeNoted); from there s's vector is the dense node's own, and s has
// none.
func (t *Tree) hold(s *scratch, n uint64) nodeFilter {
	if n >= t.line() {
		words := s.words
		s.words = nil
		return nodeFilter{dense: bloom.NewFromBits(t.fam, bitset.FromWords(t.cfg.Bits, words))}
	}
	return nodeFilter{code: bytes.Clone(s.code[:codeNoted(s.code, s.words, s.notes)]), n: n}
}

// scratch is growth's work space for uniting sparse nodes: a vector of m
// bits, a note for each of its words that a position was set in, room for
// the code of a sparse node and for a block of hashed positions. In the
// pool, words and notes are all zero.
type scratch struct {
	words  []uint64
	notes  []uint64
	code   []byte
	hashed []uint64
}

// scratchFor returns a scratch of the tree's m from its pool, or a new one.
func (t *Tree) scratchFor() *scratch {
	s, ok := t.scratch.Get().(*scratch)
	if !ok {
		s = &scratch{notes: make([]uint64, (t.words()+63)/64), code: make([]byte, 5*t.line()+slack)}
	}
	if s.words == nil {
		s.words = make([]uint64, t.words())
	}
	return s
}

// release clears the words s noted, and the notes, and puts s back in the
// pool. Past one noted word in eight, clearing the whole vector is the
// cheaper way: clearing the noted words alone, BenchmarkInsertBatch/batch
// reads ≈ 15–20 % slower.
func (t *Tree) release(s *scratch) {
	noted := 0
	for _, nw := range s.notes {
		noted += mbits.OnesCount64(nw)
	}
	switch {
	case s.words == nil:
	case 8*noted > len(s.words):
		clear(s.words)
	default:
		for ni, nw := range s.notes {
			for ; nw != 0; nw &= nw - 1 {
				s.words[ni*64+mbits.TrailingZeros64(nw)] = 0
			}
		}
	}
	clear(s.notes)
	t.scratch.Put(s)
}

// set sets the positions of the sparse f, notes their words and returns
// how many were clear.
func (s *scratch) set(f *nodeFilter) (fresh uint64) {
	for p := range f.all {
		w, b := &s.words[p/64], p%64
		fresh += ^*w >> b & 1
		*w |= 1 << b
		s.notes[p/4096] |= 1 << (p / 64 % 64)
	}
	return fresh
}

// union returns the filter of n's children's union (§3.1), which every
// internal node holds; in a pruned tree one child may be missing, and the
// other's bits are copied. Two sparse children's positions are set into a
// scratch, and their count is the rule's (hold); a sparse child's are set
// into a copy of its dense sibling's vector, and two dense vectors are
// ORed. A union with a dense child holds at least its set bits, so it is
// dense.
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
		s := t.scratchFor()
		defer t.release(s)
		return t.hold(s, s.set(a)+s.set(b))
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
	for p := range b.all {
		words[p/64] |= 1 << (p % 64)
	}
	return nodeFilter{dense: bloom.NewFromBits(t.fam, bitset.FromWords(t.cfg.Bits, words))}
}

// clone returns a copy of f that shares nothing with it.
func (f *nodeFilter) clone() nodeFilter {
	if f.dense != nil {
		return nodeFilter{dense: f.dense.Clone()}
	}
	return nodeFilter{code: bytes.Clone(f.code), n: f.n}
}

// equal reports whether f and g hold the same bits. Since the form is a
// function of the bits, and the code a function of the positions, filters
// of different forms or codes hold different bits.
func (f *nodeFilter) equal(g *nodeFilter) bool {
	if (f.dense == nil) != (g.dense == nil) {
		return false
	}
	if f.dense != nil {
		return f.dense.Bits().Equal(g.dense.Bits())
	}
	return f.n == g.n && bytes.Equal(f.code, g.code)
}

// count returns the number of set bits, t₁.
func (f *nodeFilter) count() uint64 {
	if f.dense != nil {
		return f.dense.SetBits()
	}
	return f.n
}

// bytes returns what the node holds: its code's bytes, or the dense
// vector's m/8.
func (f *nodeFilter) bytes() uint64 {
	if f.dense != nil {
		return f.dense.SizeBytes()
	}
	return uint64(len(f.code))
}

// estimate returns bloom.EstimateIntersectionOf of the node's bits and q.
func (f *nodeFilter) estimate(q *bloom.Filter) float64 {
	if f.dense != nil {
		return bloom.EstimateIntersectionOf(f.dense, q)
	}
	tand := f.setIn(q.Bits().Raw(), math.MaxUint64)
	if tand == 0 {
		return 0
	}
	return bloom.EstimateIntersection(q.M(), q.K(), f.n, q.SetBits(), tand)
}

// atLeast returns bloom.IntersectionAtLeast of the node's bits, q and thr: a
// sparse node counts its positions set in q until the count reaches the t∧
// the verdict needs.
func (f *nodeFilter) atLeast(q *bloom.Filter, thr float64) bool {
	if f.dense != nil {
		return bloom.IntersectionAtLeast(f.dense, q, thr)
	}
	m, t1, t2 := q.M(), f.n, q.SetBits()
	if t1+t2 > m {
		return f.estimate(q) >= thr
	}
	need := bloom.IntersectionNeed(m, q.K(), t1, t2, thr)
	return need <= min(t1, t2) && f.setIn(q.Bits().Raw(), need) >= need
}

// intersectsAny reports whether the node and q share a set bit.
func (f *nodeFilter) intersectsAny(q *bloom.Filter) bool {
	if f.dense != nil {
		return f.dense.IntersectsAny(q)
	}
	return f.setIn(q.Bits().Raw(), 1) > 0
}

// setIn returns how many of a sparse node's positions are set in words, its
// t∧, looking at the count before each block of 64 positions and stopping
// at the first where it has reached need. It reads the code as all does,
// written out: every estimate and verdict on a sparse node runs here, and
// ranging over all BenchmarkNodeEstimate reads ≈ 20–30 % slower.
func (f *nodeFilter) setIn(words []uint64, need uint64) (c uint64) {
	code, p := f.code, uint32(math.MaxUint32)
	for i, read := 0, 0; i < len(code); i, read = i+1, read+1 {
		if read%64 == 0 && c >= need {
			break
		}
		v := uint32(code[i])
		if v == escape {
			v = binary.LittleEndian.Uint32(code[i+1 : i+5])
			i += 4
		}
		p += v + 1
		c += words[p/64] >> (p % 64) & 1
	}
	return c
}

// writeTo writes the node's bits as the dense vector of m bits encodes
// (bitset.Set's MarshalBinary), whatever the form: a tree's stream does not
// say how it was held.
func (f *nodeFilter) writeTo(w *bufio.Writer, m uint64) error {
	var word [8]byte
	put := func(x uint64) error {
		binary.LittleEndian.PutUint64(word[:], x)
		_, err := w.Write(word[:])
		return err
	}
	if err := put(m); err != nil {
		return err
	}
	if f.dense != nil {
		for _, x := range f.dense.Bits().Raw() {
			if err := put(x); err != nil {
				return err
			}
		}
		return nil
	}
	var x uint64 // the bits of word i that the positions so far set
	i := uint64(0)
	for p := range f.all {
		for ; uint64(p)/64 > i; i, x = i+1, 0 {
			if err := put(x); err != nil {
				return err
			}
		}
		x |= 1 << (p % 64)
	}
	for ; i < (m+63)/64; i, x = i+1, 0 {
		if err := put(x); err != nil {
			return err
		}
	}
	return nil
}
