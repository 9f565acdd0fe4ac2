package core

import (
	"bytes"
	"encoding/binary"
	"go/build"
	"io"
	"math"
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

// treeHeader is the BST1 header of cfg, hand-assembled so that a test can
// claim what no tree would.
func treeHeader(cfg Config, pruned, hasRoot bool) []byte {
	b := append([]byte(treeMagic), byte(len(cfg.HashKind)))
	b = append(b, cfg.HashKind...)
	b = binary.LittleEndian.AppendUint64(b, cfg.Namespace)
	b = binary.LittleEndian.AppendUint64(b, cfg.Bits)
	b = binary.LittleEndian.AppendUint32(b, uint32(cfg.K))
	b = binary.LittleEndian.AppendUint32(b, uint32(cfg.Depth))
	b = binary.LittleEndian.AppendUint64(b, cfg.Seed)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cfg.EmptyThreshold))
	return append(b, b2u8(pruned), b2u8(hasRoot))
}

// nodeHead is a node up to the length of its payload.
func nodeHead(lo, hi uint64, payloadLen uint32) []byte {
	b := binary.LittleEndian.AppendUint64(nil, lo)
	b = binary.LittleEndian.AppendUint64(b, hi)
	return binary.LittleEndian.AppendUint32(b, payloadLen)
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

// forgedTrees are three short streams whose headers lie — each accepted for
// long enough, before the decoder was bounded, to allocate or recurse as
// told.
func forgedTrees() (names []string, streams [][]byte) {
	base := Config{Namespace: 1 << 20, Bits: 64, K: 3, HashKind: hashfam.KindFast, Depth: 2, EmptyThreshold: 0.5}

	// A 16-byte filter (64 bits, none set) as a node stores it.
	emptyBits := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 64), 0)
	// One link of a chain: a node whose only child is its left one.
	link := append(append(nodeHead(0, 1<<20, uint32(len(emptyBits))), emptyBits...), 1)

	hugeBits := base
	hugeBits.Bits = 1 << 40 // makes a 1 GiB payload plausible
	hugeK := base
	hugeK.HashKind, hugeK.K = hashfam.KindSimple, 1<<20 // a family that allocates per function

	return []string{
			"payload length backed by a forged Bits",
			"chain of nodes below the header's depth",
			"forged k",
		}, [][]byte{
			append(treeHeader(hugeBits, true, true), nodeHead(0, 1<<20, 1<<30)...),
			append(treeHeader(base, true, true), bytes.Repeat(link, 10_000)...),
			treeHeader(hugeK, true, false),
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

// FuzzReadTree fuzzes the BST1 decoder, header included (ReadTree builds
// nothing from the header's namespace or depth; it only reads what follows):
// it must not panic, must not allocate beyond a small multiple of its input,
// and a tree it accepts must re-serialise to bytes that decode to a tree
// serialising the same — byte-equal to the input itself for what WriteTo
// wrote, which the seeds are. (Not for every accepted input: the decoder
// forgives a zero threshold, flag bytes other than 0 and 1, set bits past a
// filter's length and trailing bytes, all of which WriteTo normalises.)
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
	for _, tree := range []*Tree{full, pruned} {
		var buf bytes.Buffer
		if _, err := tree.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		seed := buf.Bytes()
		got, err := ReadTree(bytes.NewReader(seed))
		if err != nil {
			f.Fatal(err)
		}
		var again bytes.Buffer
		if _, err := got.WriteTo(&again); err != nil || !bytes.Equal(again.Bytes(), seed) {
			f.Fatalf("a written tree does not re-serialise byte-equal (err %v)", err)
		}
		f.Add(seed)
		// Truncations: inside the header, after it, inside the root's
		// payload, after the first whole node, and one byte short.
		hdr := len(treeHeader(cfg, false, false))
		for _, cut := range []int{3, hdr - 1, hdr, hdr + 30, hdr + 16 + 4 + 8 + 32 + 1, len(seed) - 1} {
			f.Add(seed[:cut])
		}
	}
	// The forged streams, but for the one that names the simple family: its
	// constructor finds primes below the header's Bits by trial division, and
	// a mutated Bits there costs the fuzzer minutes of CPU, not memory (open
	// in ROADMAP with the other costs a forged header can still ask for).
	_, forged := forgedTrees()
	f.Add(forged[0])
	f.Add(forged[1])

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
