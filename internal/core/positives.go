package core

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"

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
// The ids are cut into blocks of positivesBlock. A block is its first id
// and the byte offset of its gaps (12 bytes: the skip entry Select jumps
// to) followed in gaps by the uvarint difference of each later id from its
// predecessor, so Select decodes at most positivesBlock−1 varints. At the
// planned filter sizes a gap fits one byte three times in four: ≈ 1.4 bytes
// an id, a little under half of the version's own bit vector.
type Positives struct {
	count  int
	firsts []uint64 // a block's first id
	offs   []uint32 // where the block's gaps start
	gaps   []byte
	last   uint64 // the id packed last
	// nodes is Tree.Nodes() read before the scan began: the table describes
	// the leaves that existed then (see Version.Positives).
	nodes uint64
}

// positivesBlock is the number of ids under one skip entry.
const positivesBlock = 64

// Len returns the number of positives.
func (p *Positives) Len() int { return p.count }

// Bytes returns the size of the packed table.
func (p *Positives) Bytes() uint64 {
	return uint64(len(p.gaps)) + 12*uint64(len(p.firsts))
}

// Select returns the i-th positive in ascending order, 0 ≤ i < Len().
func (p *Positives) Select(i int) uint64 {
	b := i / positivesBlock
	x := p.firsts[b]
	gaps := p.gaps[p.offs[b]:]
	// binary.Uvarint's bytes, read without a branch on the continuation bit:
	// three gaps in four are one byte long and the fourth is not, which no
	// predictor learns.
	for r, shift := uint(i%positivesBlock), uint(0); r > 0; {
		c := gaps[0]
		gaps = gaps[1:]
		x += uint64(c&0x7f) << shift
		more := uint(c >> 7)
		shift = (shift + 7) & -more
		r -= 1 - more
	}
	return x
}

// AppendAll appends every positive to out, ascending.
func (p *Positives) AppendAll(out []uint64) []uint64 { return p.appendBetween(0, math.MaxUint64, out) }

// AppendRange appends the positives in [lo, hi) to out, ascending: what a
// scan of a leaf over that range finds, read back.
func (p *Positives) AppendRange(lo, hi uint64, out []uint64) []uint64 {
	if hi <= lo {
		return out
	}
	return p.appendBetween(lo, hi-1, out)
}

// appendBetween appends the positives in [lo, last] — last included, so that
// the largest id there is has a range that holds it. It starts at the last
// block whose first id does not exceed lo (the skip entries are searched,
// no gap is read to get there) and decodes forward a block at a time until
// a block starts past last. A block that lies inside the range is unpacked
// straight into out; only the block at either end of the range can hold ids
// outside it, and is unpacked aside and filtered.
func (p *Positives) appendBetween(lo, last uint64, out []uint64) []uint64 {
	b := max(sort.Search(len(p.firsts), func(b int) bool { return p.firsts[b] > lo })-1, 0)
	for ; b < len(p.firsts) && p.firsts[b] <= last; b++ {
		// The block's ids are below the next block's first; the last block's
		// end at the id packed last.
		end := p.last
		if b+1 < len(p.firsts) {
			end = p.firsts[b+1] - 1
		}
		if p.firsts[b] >= lo && end <= last {
			out = p.appendBlock(b, out)
			continue
		}
		var aside [positivesBlock]uint64
		for _, x := range p.appendBlock(b, aside[:0]) {
			if x > last {
				return out
			}
			if x >= lo {
				out = append(out, x)
			}
		}
	}
	return out
}

// appendBlock appends the ids of block b to out. Like Select it reads the
// gaps' bytes without a branch on the continuation bit — three gaps in four
// are one byte long, which no predictor learns: every byte adds its seven
// bits to the running id and stores it, and the store moves on only when the
// byte was a gap's last.
func (p *Positives) appendBlock(b int, out []uint64) []uint64 {
	n := min(positivesBlock, p.count-b*positivesBlock)
	gaps := p.gaps[p.offs[b]:]
	if b+1 < len(p.offs) {
		gaps = gaps[:p.offs[b+1]-p.offs[b]]
	}
	i := len(out)
	out = slices.Grow(out, n)[:i+n]
	x := p.firsts[b]
	out[i] = x
	i++
	shift := uint(0)
	for _, c := range gaps {
		x += uint64(c&0x7f) << shift
		more := uint(c >> 7)
		shift = (shift + 7) & -more
		out[i] = x
		i += int(1 - more)
	}
	return out
}

// add packs x, which must exceed every id packed before it.
func (p *Positives) add(x uint64) {
	if p.count%positivesBlock == 0 {
		p.firsts = append(p.firsts, x)
		p.offs = append(p.offs, uint32(len(p.gaps)))
	} else {
		p.gaps = binary.AppendUvarint(p.gaps, x-p.last)
	}
	p.last = x
	p.count++
}

// packPositives scans every leaf under n, left to right, and packs the ids
// q answers for. No child is pruned on an estimate or a verdict: a leaf
// either rule drops can still hold positives a descent reaches by
// backtracking. It stops, reporting false, once the table outgrows budget
// bytes. buf is the scan's scratch (AppendPositives).
func (t *Tree) packPositives(n *node, q *bloom.Filter, p *Positives, budget uint64, buf *[]uint64) bool {
	if n == nil {
		return true
	}
	left, right := n.children()
	if left == nil && right == nil {
		*buf = q.AppendPositives(n.lo, n.hi, (*buf)[:0])
		for _, x := range *buf {
			p.add(x)
		}
		return p.Bytes() <= budget
	}
	return t.packPositives(left, q, p, budget, buf) && t.packPositives(right, q, p, budget, buf)
}
