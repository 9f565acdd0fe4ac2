package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/bitset"
	"repro/internal/bloom"
	"repro/internal/hashfam"
)

// Binary encoding of a Tree. Building a BloomSampleTree costs one hash
// pass over the namespace (or the occupied ids); at the paper's Twitter
// scale that is minutes of work worth persisting. The format stores the
// configuration once, then the nodes in pre-order with a presence byte
// per child, so pruned trees serialize only what they allocated:
//
//	magic    [4]byte "BST1"
//	kindLen  uint8, kind string
//	namespace, bits uint64; k, depth uint32; seed uint64
//	emptyThreshold float64 bits (uint64)
//	pruned   uint8
//	hasRoot  uint8
//	nodes    (pre-order): lo, hi uint64; bits payload; childMask uint8
//	         (bit0 = left present, bit1 = right present)
const treeMagic = "BST1"

// WriteTo serializes the tree. It implements io.WriterTo. On a pruned
// tree, growth concurrent with WriteTo yields a valid snapshot that may
// hold an in-flight batch only partially (ReadTree gives each internal node
// its children's union); quiesce writers first when an exact point-in-time
// image is required.
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
		if err := writeNode(bw, root); err != nil {
			return cw.n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

func writeNode(w *bufio.Writer, n *node) error {
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], n.lo)
	binary.LittleEndian.PutUint64(hdr[8:], n.hi)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	bits, err := n.filter().Bits().MarshalBinary()
	if err != nil {
		return err
	}
	var bl [4]byte
	binary.LittleEndian.PutUint32(bl[:], uint32(len(bits)))
	if _, err := w.Write(bl[:]); err != nil {
		return err
	}
	if _, err := w.Write(bits); err != nil {
		return err
	}
	left, right := n.children()
	var mask byte
	if left != nil {
		mask |= 1
	}
	if right != nil {
		mask |= 2
	}
	if err := w.WriteByte(mask); err != nil {
		return err
	}
	if left != nil {
		if err := writeNode(w, left); err != nil {
			return err
		}
	}
	if right != nil {
		if err := writeNode(w, right); err != nil {
			return err
		}
	}
	return nil
}

// ReadTree deserializes a tree written by WriteTo. The result is fully
// usable (sampling, reconstruction, dynamic Insert on pruned trees).
func ReadTree(r io.Reader) (*Tree, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(treeMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != treeMagic {
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
	if hasRoot {
		root, err := readNode(br, t, cfg.Depth)
		if err != nil {
			return nil, err
		}
		t.publish(&t.root, root)
	}
	if err := t.validateShape(); err != nil {
		return nil, err
	}
	return t, nil
}

// readNode decodes one node and, as its child mask says, its subtrees. What
// the stream claims sizes nothing: depth is how many levels the header's
// Depth (bounded by Config.validate) still allows below this node, so a chain
// of minimal nodes cannot grow the stack past it, and a node's payload is
// read through a bounded reader, so memory is allocated as bytes arrive and a
// forged length — or a forged Bits in the header, which the length is checked
// against — cannot make the loader allocate what the stream does not hold.
func readNode(r *bufio.Reader, t *Tree, depth int) (*node, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := newNode(binary.LittleEndian.Uint64(hdr[0:]), binary.LittleEndian.Uint64(hdr[8:]), nil)
	var bl [4]byte
	if _, err := io.ReadFull(r, bl[:]); err != nil {
		return nil, err
	}
	blen := binary.LittleEndian.Uint32(bl[:])
	if uint64(blen) > 8+(t.cfg.Bits/64+1)*8+8 {
		return nil, fmt.Errorf("core: node filter payload %d bytes too large", blen)
	}
	payload, err := io.ReadAll(io.LimitReader(r, int64(blen)))
	if err != nil {
		return nil, err
	}
	if uint32(len(payload)) != blen {
		return nil, io.ErrUnexpectedEOF
	}
	var bits bitset.Set
	if err := bits.UnmarshalBinary(payload); err != nil {
		return nil, err
	}
	if bits.Len() != t.cfg.Bits {
		return nil, fmt.Errorf("core: node filter has %d bits, tree expects %d", bits.Len(), t.cfg.Bits)
	}
	n.setFilter(bloom.NewFromBits(t.fam, &bits))
	mask, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if mask&3 != 0 && depth == 0 {
		return nil, fmt.Errorf("core: node [%d,%d) has children below the tree's depth %d", n.lo, n.hi, t.cfg.Depth)
	}
	if mask&1 != 0 {
		child, err := readNode(r, t, depth-1)
		if err != nil {
			return nil, err
		}
		n.left.Store(child)
	}
	if mask&2 != 0 {
		child, err := readNode(r, t, depth-1)
		if err != nil {
			return nil, err
		}
		n.right.Store(child)
	}
	// Growth takes an internal node's bits to be exactly its children's
	// union (growNode), so the node is given that union. A tree saved while
	// a batch grew it can hold a node written before or after its children
	// took some of the batch's ids; those ids belong to writes after the
	// saved view, which a log replays. The vector is the node's own and
	// uncounted yet, so it is rewritten in place.
	if left, right := n.children(); left != nil || right != nil {
		words := bits.Raw()
		clear(words)
		for _, c := range []*node{left, right} {
			if c != nil {
				for i, w := range c.filter().Bits().Raw() {
					words[i] |= w
				}
			}
		}
	}
	return n, nil
}

// validateShape checks structural invariants of a decoded tree: ranges
// nest and partition, and children of internal nodes exist per the
// pruned/full contract.
func (t *Tree) validateShape() error {
	root := t.rootNode()
	if root == nil {
		if !t.pruned {
			return fmt.Errorf("core: full tree without a root")
		}
		return nil
	}
	if root.lo != 0 || root.hi != t.cfg.Namespace {
		return fmt.Errorf("core: root range [%d,%d) != namespace [0,%d)", root.lo, root.hi, t.cfg.Namespace)
	}
	var walk func(n *node) error
	walk = func(n *node) error {
		if n.lo >= n.hi {
			return fmt.Errorf("core: empty node range [%d,%d)", n.lo, n.hi)
		}
		left, right := n.children()
		if left == nil && right == nil {
			return nil
		}
		if !t.pruned && (left == nil || right == nil) {
			return fmt.Errorf("core: full-tree internal node [%d,%d) missing a child", n.lo, n.hi)
		}
		mid := split(n.lo, n.hi)
		if left != nil {
			if left.lo != n.lo || left.hi != mid {
				return fmt.Errorf("core: left child [%d,%d) does not match split of [%d,%d)", left.lo, left.hi, n.lo, n.hi)
			}
			if err := walk(left); err != nil {
				return err
			}
		}
		if right != nil {
			if right.lo != mid || right.hi != n.hi {
				return fmt.Errorf("core: right child [%d,%d) does not match split of [%d,%d)", right.lo, right.hi, n.lo, n.hi)
			}
			if err := walk(right); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root)
}

// Save writes the tree to path atomically.
func (t *Tree) Save(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := t.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadTree reads a tree saved with Save.
func LoadTree(path string) (*Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTree(f)
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
