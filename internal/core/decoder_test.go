package core

import (
	"bytes"
	"encoding/binary"
	"go/build"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/hashfam"
)

// TestCoreDoesNotImportMembership keeps a tree node what it is, a Bloom
// filter: the backend contract of internal/membership is for the database's
// entries, and core's non-test files have no use for it.
func TestCoreDoesNotImportMembership(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		if strings.HasSuffix(imp, "internal/membership") {
			t.Fatalf("internal/core imports %s", imp)
		}
	}
}

// treeHeader is a tree stream's header under magic (BST2, or BST1), hand-
// assembled so that a test can claim what no tree would.
func treeHeader(magic string, cfg Config, pruned, hasRoot bool) []byte {
	b := append([]byte(magic), byte(len(cfg.HashKind)))
	b = append(b, cfg.HashKind...)
	b = binary.LittleEndian.AppendUint64(b, cfg.Namespace)
	b = binary.LittleEndian.AppendUint64(b, cfg.Bits)
	b = binary.LittleEndian.AppendUint32(b, uint32(cfg.K))
	b = binary.LittleEndian.AppendUint32(b, uint32(cfg.Depth))
	b = binary.LittleEndian.AppendUint64(b, cfg.Seed)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cfg.EmptyThreshold))
	return append(b, b2u8(pruned), b2u8(hasRoot))
}

// nodeHead is a BST1 node up to the length of its payload.
func nodeHead(lo, hi uint64, payloadLen uint32) []byte {
	b := binary.LittleEndian.AppendUint64(nil, lo)
	b = binary.LittleEndian.AppendUint64(b, hi)
	return binary.LittleEndian.AppendUint32(b, payloadLen)
}

// nodeBytes is the tree in the BST1 layout: the header, then every node in
// pre-order as its range, the length of its vector and the vector, and its
// child mask. ReadTree still reads it, and tests compare trees by it: it
// holds every node's vector, where WriteTo stores the leaves' alone.
func nodeBytes(tree *Tree) []byte {
	var b bytes.Buffer
	writeNodeBytes(&b, tree)
	return b.Bytes()
}

// writeNodeBytes writes nodeBytes(tree) to w a node at a time.
func writeNodeBytes(w io.Writer, tree *Tree) {
	w.Write(treeHeader(legacyTreeMagic, tree.cfg, tree.pruned, tree.rootNode() != nil))
	var walk func(n *node)
	walk = func(n *node) {
		bits, _ := tree.bloomOf(n).Bits().MarshalBinary()
		left, right := n.children()
		w.Write(nodeHead(n.lo, n.hi, uint32(len(bits))))
		w.Write(bits)
		w.Write([]byte{b2u8(left != nil) | b2u8(right != nil)<<1})
		for _, c := range []*node{left, right} {
			if c != nil {
				walk(c)
			}
		}
	}
	if root := tree.rootNode(); root != nil {
		walk(root)
	}
}

// countingReader counts the bytes a decoder pulled from the stream.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// readTreeCounted is ReadTree, also reporting the bytes it consumed and the
// bytes the process allocated meanwhile.
func readTreeCounted(data []byte) (tree *Tree, consumed int, allocated uint64, err error) {
	cr := &countingReader{r: bytes.NewReader(data)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tree, err = ReadTree(cr)
	runtime.ReadMemStats(&after)
	return tree, cr.n, after.TotalAlloc - before.TotalAlloc, err
}

// forgedTrees are short streams whose headers lie — the three BST1 ones
// each accepted for long enough, before the decoder was bounded, to
// allocate or recurse as told, and their BST2 counterparts.
func forgedTrees() (names []string, streams [][]byte) {
	base := Config{Namespace: 1 << 20, Bits: 64, K: 3, HashKind: hashfam.KindFast, Depth: 2, EmptyThreshold: 0.5}

	// A 16-byte filter (64 bits, none set) as a node stores it.
	emptyBits := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 64), 0)
	// One link of a chain: a node whose only child is its left one.
	link := append(append(nodeHead(0, 1<<20, uint32(len(emptyBits))), emptyBits...), 1)

	hugeBits := base
	hugeBits.Bits = maxBits // makes a 512 MiB payload plausible
	hugeLeaf := hugeBits
	hugeLeaf.Depth = 0 // the root is a leaf, which carries a vector
	hugeK := base
	hugeK.HashKind, hugeK.K = hashfam.KindSimple, 1<<20 // a family that allocates per function

	return []string{
			"payload length backed by a forged Bits",
			"chain of nodes below the header's depth",
			"forged k",
			"leaf vector backed by a forged Bits",
			"chain of masks below the header's depth",
		}, [][]byte{
			append(treeHeader(legacyTreeMagic, hugeBits, true, true), nodeHead(0, 1<<20, 1<<30)...),
			append(treeHeader(legacyTreeMagic, base, true, true), bytes.Repeat(link, 10_000)...),
			treeHeader(legacyTreeMagic, hugeK, true, false),
			append(treeHeader(treeMagic, hugeLeaf, true, true), append([]byte{0}, emptyBits...)...),
			append(treeHeader(treeMagic, base, true, true), bytes.Repeat([]byte{1}, 100_000)...),
		}
}

func TestReadTreeSizesNothingByTheStreamsClaims(t *testing.T) {
	names, streams := forgedTrees()
	for i, stream := range streams {
		t.Run(names[i], func(t *testing.T) {
			_, consumed, allocated, err := readTreeCounted(stream)
			if err == nil {
				t.Error("accepted")
			}
			if allocated >= 1<<20 {
				t.Errorf("answering %d bytes allocated %d bytes", len(stream), allocated)
			}
			// A decoder that stops at the header's depth has no use for the
			// 10 000th link; one that follows child masks reads them all.
			if limit := 64 << 10; len(stream) > limit && consumed > limit {
				t.Errorf("consumed %d of %d bytes before refusing: it followed the chain", consumed, len(stream))
			}
		})
	}
}

// FuzzReadTree fuzzes the decoder, BST2 and BST1's read-only branch, header
// included (ReadTree builds nothing from the header's namespace or depth; it
// only reads what follows): it must not panic, must not allocate beyond a
// small multiple of its input, and a tree it accepts must re-serialise to
// bytes that decode to a tree serialising the same — byte-equal to the input
// itself for what WriteTo wrote, which the BST2 seeds are. (Not for every
// accepted input: the decoder forgives a zero threshold, flag bytes other
// than 0 and 1, set bits past a filter's length and trailing bytes, all of
// which WriteTo normalises, and it writes a BST1 stream as BST2.) The BST1
// seeds are the two trees as that format stored them and the tree of the
// bundle internal/wal keeps from before BST2.
func FuzzReadTree(f *testing.F) {
	cfg := Config{Namespace: 4096, Bits: 256, K: 3, HashKind: hashfam.KindFast, Seed: 5, Depth: 3}
	full, err := BuildTree(cfg)
	if err != nil {
		f.Fatal(err)
	}
	pruned, err := BuildPruned(cfg, []uint64{1, 2, 700, 4000})
	if err != nil {
		f.Fatal(err)
	}
	// Leaves that hold their set positions (nodeFilter): about five ids, 15
	// bits, a leaf against 32 words; the nodes above them are denser.
	sparseCfg := cfg
	sparseCfg.Bits = 2048
	sparse, err := BuildPruned(sparseCfg, uniformSet(rand.New(rand.NewSource(5)), cfg.Namespace, 40))
	if err != nil {
		f.Fatal(err)
	}
	if s, leaves := sparseNodes(sparse); s == 0 || leaves == 0 {
		f.Fatal("the sparse seed holds no sparse leaf")
	}
	for _, tree := range []*Tree{full, pruned, sparse} {
		var buf bytes.Buffer
		if _, err := tree.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		seed := buf.Bytes()
		for _, stream := range [][]byte{seed, nodeBytes(tree)} {
			got, err := ReadTree(bytes.NewReader(stream))
			if err != nil {
				f.Fatal(err)
			}
			var again bytes.Buffer
			if _, err := got.WriteTo(&again); err != nil || !bytes.Equal(again.Bytes(), seed) {
				f.Fatalf("a written tree does not re-serialise byte-equal (err %v)", err)
			}
			f.Add(stream)
		}
		// Truncations: inside the header, after it, after the root's mask,
		// inside the first leaf's vector, and one byte short.
		hdr := len(treeHeader(treeMagic, cfg, false, false))
		for _, cut := range []int{3, hdr - 1, hdr, hdr + 1, hdr + cfg.Depth + 20, len(seed) - 1} {
			f.Add(seed[:cut])
		}
	}
	bundle, err := os.ReadFile("../wal/testdata/golden-bsc1-bst1.snap")
	if err != nil {
		f.Fatal(err)
	}
	legacy := bundle[bytes.Index(bundle, []byte(legacyTreeMagic)):]
	if _, err := ReadTree(bytes.NewReader(legacy)); err != nil {
		f.Fatalf("the BST1 tree of the kept bundle does not load: %v", err)
	}
	f.Add(legacy)
	// The forged streams, but for the one that names the simple family: its
	// constructor finds primes below the header's Bits by trial division, and
	// a mutated Bits there costs the fuzzer minutes of CPU, not memory (open
	// in ROADMAP with the other costs a forged header can still ask for).
	names, forged := forgedTrees()
	for i, stream := range forged {
		if names[i] != "forged k" {
			f.Add(stream)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tree, _, allocated, err := readTreeCounted(data)
		if limit := uint64(1<<20 + 64*len(data)); allocated > limit {
			t.Fatalf("decoding %d bytes allocated %d, over %d", len(data), allocated, limit)
		}
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if _, err := tree.WriteTo(&first); err != nil {
			t.Fatalf("an accepted tree does not serialise: %v", err)
		}
		tree2, err := ReadTree(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("an accepted tree does not reload: %v", err)
		}
		if _, err := tree2.WriteTo(&second); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("a reloaded tree serialises differently (err %v)", err)
		}
	})
}
