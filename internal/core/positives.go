package core

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sync/atomic"
	"unsafe"

	"repro/internal/bloom"
)

// Positives is every id of the tree's leaves that one filter version
// answers for — {x in a leaf's range : q.Contains(x)}, the universe
// sampleLeaf draws from — ascending and packed. A Bloom filter has no false
// negatives, so one unpruned scan of the leaves finds the complete set, and
// an immutable version keeps it for as long as the same leaves exist: a draw
// is then Select(rng.Intn(Len())), exactly uniform over the version's
// positives, with no estimate, no backtracking and no lost draw.
//
// The ids are cut into blocks of positivesBlock. A block is its skip entry —
// its first id, the byte offset of its offsets in packed, and their width —
// and the offset of each of its ids from the first, bit-packed at one width
// a block: the bit length of the block's largest offset. packed ends in
// positivesPad zero bytes, so any offset is one unaligned 8-byte load, a
// shift and a mask (offsetAt), and Select is O(1). At the planned filter
// sizes (ids ≈ 90 apart) an offset takes 13 bits: ≈ 1.9 bytes an id with the
// skip entries, ≈ 0.61 of the version's own bit vector.
type Positives struct {
	count  int
	skips  []positivesSkip
	packed []byte
	// nodes is Tree.Nodes() read before the scan began: the table describes
	// the leaves that existed then (see Version.Positives).
	nodes uint64

	// derived is one value a caller computed from the table and keeps beside
	// it (the server hangs a reconstruction's reply bytes here), as
	// bloom.Filter's derived slot carries a Version. A table never changes,
	// so it is set at most once and never dropped: it lives exactly as long
	// as the table, which a tree that grows a node drops, and which a
	// declined version hands out afresh to every caller.
	derived atomic.Pointer[any]
}

// positivesSkip is one block's skip entry.
type positivesSkip struct {
	first uint64 // the block's first id
	off   uint32 // where the block's offsets start in packed
	width uint8  // the bits of each offset
}

const (
	// positivesBlock is the number of ids under one skip entry.
	positivesBlock = 64
	// positivesPad is the zero bytes packed ends in: an 8-byte load at the
	// last offset's first byte stays inside the slice.
	positivesPad = 8
)

// Len returns the number of positives.
func (p *Positives) Len() int { return p.count }

// Derived returns the value attached to the table, nil when there is none.
// Safe for concurrent callers.
func (p *Positives) Derived() any {
	if d := p.derived.Load(); d != nil {
		return *d
	}
	return nil
}

// AttachDerived attaches v unless a value is attached already, and returns
// the attached one: of several concurrent callers all get the first's.
func (p *Positives) AttachDerived(v any) any {
	if p.derived.CompareAndSwap(nil, &v) {
		return v
	}
	return p.Derived()
}

// Bytes returns the size of the packed table.
func (p *Positives) Bytes() uint64 {
	return uint64(len(p.packed)) + uint64(len(p.skips))*uint64(unsafe.Sizeof(positivesSkip{}))
}

// Select returns the i-th positive in ascending order, 0 ≤ i < Len().
func (p *Positives) Select(i int) uint64 {
	s := &p.skips[uint(i)/positivesBlock]
	w := uint(s.width)
	return s.first + offsetAt(p.packed[s.off:], uint(i)%positivesBlock*w, w)
}

// offsetAt reads the width-bit offset that starts bit bits into packed: an
// unaligned 8-byte load, a shift and a mask, and a ninth byte only when the
// offset runs past the eight (bit%8 + width > 64, so widths of 58 and more).
func offsetAt(packed []byte, bit, width uint) uint64 {
	b, s := bit/8, bit%8
	v := binary.LittleEndian.Uint64(packed[b:]) >> s
	if s+width > 64 {
		v |= uint64(packed[b+8]) << (64 - s)
	}
	return v & (1<<width - 1)
}

// AppendAll appends every positive to out, ascending, growing out at most
// once: every block unpacked in turn.
func (p *Positives) AppendAll(out []uint64) []uint64 {
	out = slices.Grow(out, p.count)
	for b := range p.skips {
		out = p.appendBlock(b, out)
	}
	return out
}

// appendBlock appends the ids of block b to out: one pass over the block's
// offsets, a bit cursor moving a width at a time. Below 58 bits no offset
// reaches a ninth byte, and the loop is offsetAt's load, shift and mask
// with the mask made once.
func (p *Positives) appendBlock(b int, out []uint64) []uint64 {
	n := min(positivesBlock, p.count-b*positivesBlock)
	s := p.skips[b]
	packed, w := p.packed[s.off:], uint(s.width)
	i := len(out)
	out = slices.Grow(out, n)[:i+n]
	ids, bit := out[i:], uint(0)
	if w > 57 {
		for j := range ids {
			ids[j] = s.first + offsetAt(packed, bit, w)
			bit += w
		}
		return out
	}
	mask := uint64(1)<<w - 1
	for j := range ids {
		ids[j] = s.first + binary.LittleEndian.Uint64(packed[bit/8:])>>(bit%8)&mask
		bit += w
	}
	return out
}

// positivesPacker builds a table from ids that arrive ascending. A block's
// width is known only once its last id is, so a block is packed when it is
// full, and the last one by finish.
type positivesPacker struct {
	p     *Positives
	block []uint64 // the ids of the block being filled
}

func newPositivesPacker(nodes uint64) *positivesPacker {
	return &positivesPacker{p: &Positives{nodes: nodes}, block: make([]uint64, 0, positivesBlock)}
}

// add packs x, which must exceed every id added before it.
func (pk *positivesPacker) add(x uint64) {
	pk.block = append(pk.block, x)
	pk.p.count++
	if len(pk.block) == positivesBlock {
		pk.pack()
	}
}

// pack appends the block being filled to the table: its skip entry, then
// the offsets, written into packed through a 64-bit accumulator.
func (pk *positivesPacker) pack() {
	p, first := pk.p, pk.block[0]
	w := uint(bits.Len64(pk.block[len(pk.block)-1] - first))
	p.skips = append(p.skips, positivesSkip{first: first, off: uint32(len(p.packed)), width: uint8(w)})
	var acc uint64 // the bits not yet written, n of them
	n := uint(0)
	for _, x := range pk.block {
		d := x - first
		acc |= d << n
		if n+w < 64 {
			n += w
			continue
		}
		p.packed = binary.LittleEndian.AppendUint64(p.packed, acc)
		acc = d >> (64 - n) // what did not fit; nothing when n is 0
		n = n + w - 64
	}
	for ; n > 0; n -= min(n, 8) {
		p.packed = append(p.packed, byte(acc))
		acc >>= 8
	}
	pk.block = pk.block[:0]
}

// finish packs the last block, pads packed and returns the table, kept at
// its size.
func (pk *positivesPacker) finish() *Positives {
	p := pk.p
	if len(pk.block) > 0 {
		pk.pack()
	}
	if len(p.skips) > 0 {
		p.packed = append(p.packed, make([]byte, positivesPad)...)
	}
	p.skips, p.packed = slices.Clone(p.skips), slices.Clone(p.packed)
	return p
}

// packPositives scans every leaf under n, left to right, and adds the ids q
// answers for to pk. No child is pruned on an estimate or a verdict: a leaf
// either rule drops can still hold positives a descent reaches by
// backtracking. It stops, reporting false, once what is packed outgrows
// budget bytes (the finished table can only be larger). buf is the scan's
// scratch (AppendPositives).
func (t *Tree) packPositives(n *node, q *bloom.Filter, pk *positivesPacker, budget uint64, buf *[]uint64) bool {
	if n == nil {
		return true
	}
	left, right := n.children()
	if left == nil && right == nil {
		*buf = q.AppendPositives(n.lo, n.hi, (*buf)[:0])
		for _, x := range *buf {
			pk.add(x)
		}
		return pk.p.Bytes() <= budget
	}
	return t.packPositives(left, q, pk, budget, buf) && t.packPositives(right, q, pk, budget, buf)
}
