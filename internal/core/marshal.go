package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/bitset"
	"repro/internal/hashfam"
)

// Binary encoding of a Tree. Building a BloomSampleTree costs one hash
// pass over the namespace (or the occupied ids); at the paper's Twitter
// scale that is minutes of work worth persisting. The format stores the
// configuration once, then the nodes in pre-order: each node's child mask,
// and a bit vector for each leaf. A node's range follows from its parent's
// by split and an internal node's vector is its children's union (§3.1,
// Definition 5.1), so neither is stored; pruned trees serialize only what
// they allocated:
//
//	magic    [4]byte "BST2"
//	kindLen  uint8, kind string
//	namespace, bits uint64; k, depth uint32; seed uint64
//	emptyThreshold float64 bits (uint64)
//	pruned   uint8
//	hasRoot  uint8
//	nodes    (pre-order): childMask uint8 (bit0 = left present, bit1 =
//	         right present; 0 exactly where the depth is used up or the
//	         range holds one id: a leaf), then for a leaf its bits payload
//	         (bitset.Set encoding)
//
// "BST1", which stored every node as lo, hi uint64, a uint32 payload length
// and its bits payload before the child mask, is still read; nothing
// writes it.
const (
	treeMagic       = "BST2"
	legacyTreeMagic = "BST1"
)

// WriteTo serializes the tree. It implements io.WriterTo. On a pruned
// tree, growth concurrent with WriteTo yields a valid snapshot that may
// hold an in-flight batch only partially; quiesce writers first when an
// exact point-in-time image is required.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	root := t.rootNode()
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	if _, err := bw.WriteString(treeMagic); err != nil {
		return cw.n, err
	}
	kind := string(t.cfg.HashKind)
	hdr := make([]byte, 0, 64)
	hdr = append(hdr, byte(len(kind)))
	hdr = append(hdr, kind...)
	hdr = binary.LittleEndian.AppendUint64(hdr, t.cfg.Namespace)
	hdr = binary.LittleEndian.AppendUint64(hdr, t.cfg.Bits)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(t.cfg.K))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(t.cfg.Depth))
	hdr = binary.LittleEndian.AppendUint64(hdr, t.cfg.Seed)
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(t.cfg.EmptyThreshold))
	hdr = append(hdr, b2u8(t.pruned), b2u8(root != nil))
	if _, err := bw.Write(hdr); err != nil {
		return cw.n, err
	}
	if root != nil {
		if err := writeNode(bw, root, t.cfg.Bits); err != nil {
			return cw.n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// writeNode writes n and its subtree in pre-order: each node's child mask,
// and each leaf's bits as its dense vector of m bits encodes them, whichever
// form it holds them in.
func writeNode(w *bufio.Writer, n *node, m uint64) error {
	left, right := n.children()
	mask := b2u8(left != nil) | b2u8(right != nil)<<1
	if err := w.WriteByte(mask); err != nil {
		return err
	}
	if mask == 0 {
		return n.filter().writeTo(w, m)
	}
	for _, c := range []*node{left, right} {
		if c != nil {
			if err := writeNode(w, c, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadTree deserializes a tree written by WriteTo (or a BST1 stream). The
// result is fully usable (sampling, reconstruction, dynamic Insert on
// pruned trees).
func ReadTree(r io.Reader) (*Tree, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(treeMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	legacy := string(magic) == legacyTreeMagic
	if !legacy && string(magic) != treeMagic {
		return nil, fmt.Errorf("core: bad tree magic %q", magic)
	}
	kl, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	kind := make([]byte, kl)
	if _, err := io.ReadFull(br, kind); err != nil {
		return nil, err
	}
	fixed := make([]byte, 8+8+4+4+8+8+1+1)
	if _, err := io.ReadFull(br, fixed); err != nil {
		return nil, err
	}
	cfg := Config{
		HashKind:       hashfam.Kind(kind),
		Namespace:      binary.LittleEndian.Uint64(fixed[0:]),
		Bits:           binary.LittleEndian.Uint64(fixed[8:]),
		K:              int(binary.LittleEndian.Uint32(fixed[16:])),
		Depth:          int(binary.LittleEndian.Uint32(fixed[20:])),
		Seed:           binary.LittleEndian.Uint64(fixed[24:]),
		EmptyThreshold: math.Float64frombits(binary.LittleEndian.Uint64(fixed[32:])),
	}
	pruned := fixed[40] == 1
	hasRoot := fixed[41] == 1

	t, err := newTree(cfg, pruned)
	if err != nil {
		return nil, err
	}
	if !hasRoot {
		if !pruned {
			return nil, fmt.Errorf("core: full tree without a root")
		}
		return t, nil
	}
	root, err := t.readNode(br, legacy, 0, cfg.Namespace, cfg.Depth)
	if err != nil {
		return nil, err
	}
	t.publish(&t.root, root)
	return t, nil
}

// readNode decodes the node over [lo, hi), depth levels above the leaves,
// and, as its child mask says, its subtrees; an internal node is given its
// children's union. What the stream claims sizes nothing: ranges and depth
// are derived, so the recursion stops at the header's Depth (bounded by
// Config.validate) however many masks follow, and a vector, whose length the
// header's Bits fixes, is read through a bounded reader, so memory is
// allocated as bytes arrive and a forged Bits cannot make the loader
// allocate what the stream does not hold.
//
// A BST1 node (legacy) also carries its range, which must be the derived
// one, and a vector before its mask; an internal node's is read and
// dropped.
func (t *Tree) readNode(r *bufio.Reader, legacy bool, lo, hi uint64, depth int) (*node, error) {
	var bits *bitset.Set
	if legacy {
		var hdr [20]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, err
		}
		if l, h := binary.LittleEndian.Uint64(hdr[0:]), binary.LittleEndian.Uint64(hdr[8:]); l != lo || h != hi {
			return nil, fmt.Errorf("core: node [%d,%d) where [%d,%d) belongs", l, h, lo, hi)
		}
		if blen := binary.LittleEndian.Uint32(hdr[16:]); uint64(blen) != bitset.EncodedLen(t.cfg.Bits) {
			return nil, fmt.Errorf("core: node payload of %d bytes, %d bits take %d", blen, t.cfg.Bits, bitset.EncodedLen(t.cfg.Bits))
		}
		var err error
		if bits, err = t.readBits(r); err != nil {
			return nil, err
		}
	}
	mask, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	leaf := depth == 0 || hi-lo <= 1
	switch {
	case mask > 3 || leaf != (mask == 0):
		return nil, fmt.Errorf("core: node [%d,%d) at depth %d has child mask %d", lo, hi, depth, mask)
	case !t.pruned && !leaf && mask != 3:
		return nil, fmt.Errorf("core: full-tree internal node [%d,%d) missing a child", lo, hi)
	}
	n := newNode(lo, hi)
	if leaf {
		if !legacy {
			if bits, err = t.readBits(r); err != nil {
				return nil, err
			}
		}
		n.setFilter(t.holdVector(bits)) // the rule, on the bits as read
		return n, nil
	}
	mid := split(lo, hi)
	if mask&1 != 0 {
		child, err := t.readNode(r, legacy, lo, mid, depth-1)
		if err != nil {
			return nil, err
		}
		n.left.Store(child)
	}
	if mask&2 != 0 {
		child, err := t.readNode(r, legacy, mid, hi, depth-1)
		if err != nil {
			return nil, err
		}
		n.right.Store(child)
	}
	t.unite(n)
	return n, nil
}

// readBits reads one node vector of the tree's Bits.
func (t *Tree) readBits(r io.Reader) (*bitset.Set, error) {
	size := bitset.EncodedLen(t.cfg.Bits)
	payload, err := io.ReadAll(io.LimitReader(r, int64(size)))
	if err != nil {
		return nil, err
	}
	if uint64(len(payload)) != size {
		return nil, io.ErrUnexpectedEOF
	}
	var bits bitset.Set
	if err := bits.UnmarshalBinary(payload); err != nil {
		return nil, err
	}
	if bits.Len() != t.cfg.Bits {
		return nil, fmt.Errorf("core: node filter has %d bits, tree expects %d", bits.Len(), t.cfg.Bits)
	}
	return &bits, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func b2u8(b bool) byte {
	if b {
		return 1
	}
	return 0
}
