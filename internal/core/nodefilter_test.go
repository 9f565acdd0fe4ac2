package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/bloom"
	"repro/internal/hashfam"
)

// sparse reports whether n is a node that holds its positions (nodeFilter);
// a missing node does not.
func (n *node) sparse() bool { return n != nil && n.filter().dense == nil }

// vector returns f's bits as a dense vector of m bits of its own: what the
// node would hold if every node were dense.
func (f *nodeFilter) vector(m uint64) *bitset.Set {
	if f.dense != nil {
		return f.dense.Bits().Clone()
	}
	v := bitset.New(m)
	for _, p := range f.positions() {
		v.Set(uint64(p))
	}
	return v
}

// positions returns a sparse f's positions, read from its code.
func (f *nodeFilter) positions() []uint32 {
	var out []uint32
	for p := range f.all {
		out = append(out, p)
	}
	return out
}

// gapCode is the code of ascending positions, written out from its
// definition: each position's gap to the one before it (to −1 for the
// first), less one, in a byte below 0xff, otherwise 0xff and the 32 bits,
// little-endian.
func gapCode(pos []uint32) []byte {
	var out []byte
	last := int64(-1)
	for _, p := range pos {
		v := int64(p) - last - 1
		last = int64(p)
		if v < 0xff {
			out = append(out, byte(v))
		} else {
			out = binary.LittleEndian.AppendUint32(append(out, 0xff), uint32(v))
		}
	}
	return out
}

// bloomOf returns n's bits as a Bloom filter of the tree's family, whichever
// form the node holds them in: the reference the forms are held to.
func (t *Tree) bloomOf(n *node) *bloom.Filter {
	return bloom.NewFromBits(t.fam, n.filter().vector(t.cfg.Bits))
}

// readBack is tree written out and read back.
func readBack(t *testing.T, tree *Tree) *Tree {
	t.Helper()
	back, err := ReadTree(bytes.NewReader(treeBytes(t, tree)))
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// heldBytes is what MemoryBytes counts for the tree's filters, worked out
// from each node's dense bits: the gap code of its set positions while
// there are fewer than 2·m/64 of them, m/8 from there.
func heldBytes(tree *Tree) (held uint64) {
	words := (tree.cfg.Bits + 63) / 64
	eachNode(tree.rootNode(), 1, func(n *node, _ uint64) {
		if v := tree.bloomOf(n).Bits(); v.Count() < 2*words {
			held += uint64(len(gapCode(setPositions(v))))
		} else {
			held += 8 * words
		}
	})
	return held
}

// setPositions returns the positions of v's set bits, ascending.
func setPositions(v *bitset.Set) (out []uint32) {
	v.ForEachSet(func(p uint64) bool { out = append(out, uint32(p)); return true })
	return out
}

// sparseNodes returns how many of the tree's nodes hold their positions,
// and how many of those are leaves.
func sparseNodes(tree *Tree) (sparse, leaves int) {
	eachNode(tree.rootNode(), 1, func(n *node, _ uint64) {
		if n.filter().dense == nil {
			sparse++
			if left, right := n.children(); left == nil && right == nil {
				leaves++
			}
		}
	})
	return sparse, leaves
}

// checkForms holds every node of tree to the dense vector it stands for:
// its bits are the positions of the ids inserted in its range (want), it is
// in the form the rule gives that many bits, and its estimate and verdicts
// against each query, and against a query of its lowest set bit alone and
// one of its highest, are the dense vector's, bit for bit. MemoryBytes is
// what the nodes hold, plus the occupancy bitmap.
func checkForms(t *testing.T, tree *Tree, inserted []uint64, queries []*bloom.Filter, what string) {
	t.Helper()
	line := 2 * tree.words()
	eachNode(tree.rootNode(), 1, func(n *node, _ uint64) {
		var ids []uint64
		for _, x := range inserted {
			if n.lo <= x && x < n.hi {
				ids = append(ids, x)
			}
		}
		want := bloom.NewFromElements(tree.fam, ids)
		f := n.filter()
		if got := tree.bloomOf(n); !got.Equal(want) {
			t.Fatalf("%s: [%d, %d) holds %v, its ids %v set %v", what, n.lo, n.hi, got.Bits(), ids, want.Bits())
		}
		if sparse, c := f.dense == nil, want.SetBits(); sparse != (c < line) ||
			(sparse && (f.n != c || !bytes.Equal(f.code, gapCode(setPositions(want.Bits()))))) {
			t.Fatalf("%s: [%d, %d) with %d set bits against a line of %d is sparse: %v, holding %d positions as %x", what, n.lo, n.hi, c, line, sparse, f.n, f.code)
		}
		var set []uint64
		want.ForEachSetBit(func(p uint64) bool { set = append(set, p); return true })
		ends := slices.Clip(queries)
		if len(set) > 0 {
			for _, p := range []uint64{set[0], set[len(set)-1]} {
				q := tree.NewQueryFilter()
				q.Bits().Set(p)
				ends = append(ends, q)
			}
		}
		for _, q := range ends {
			if got, want := f.estimate(q), bloom.EstimateIntersectionOf(want, q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: [%d, %d) estimates %v, its dense vector %v", what, n.lo, n.hi, got, want)
			}
			if got, want := f.intersectsAny(q), want.IntersectsAny(q); got != want {
				t.Fatalf("%s: [%d, %d) intersects: %v, its dense vector: %v", what, n.lo, n.hi, got, want)
			}
			for _, thr := range []float64{0.5, 2} {
				if got, want := f.atLeast(q, thr), bloom.IntersectionAtLeast(want, q, thr); got != want {
					t.Fatalf("%s: [%d, %d) at least %v: %v, its dense vector: %v", what, n.lo, n.hi, thr, got, want)
				}
			}
		}
	})
	if got, want := tree.MemoryBytes(), heldBytes(tree)+tree.grownBytes.Load(); got != want {
		t.Fatalf("%s: MemoryBytes %d, the nodes hold %d", what, got, want)
	}
}

// TestSparseNodesAreTheirDenseBitsExhaustive grows, for every namespace of
// 2 to 16 ids at every depth it allows and two filter sizes (2 words, a line
// of 4 set bits, where a node of one id or none is sparse, and 16, a line of
// 32, where every node of the six inserts is, with long gaps coded), a
// pruned tree over one sequence of six inserts split into batches every way
// it can be (32 splits). After every batch each node must hold the bits of
// its ids in the form the rule gives their count, every estimate and
// verdict against four queries — empty, one id, half the namespace, and a
// filter of every bit — must be the dense vector's bit for bit, and the tree
// must be BuildPruned's over the same ids.
func TestSparseNodesAreTheirDenseBitsExhaustive(t *testing.T) {
	forms := map[bool]int{}
	for M := uint64(2); M <= 16; M++ {
		for _, m := range []uint64{128, 1024} {
			for depth := 0; depth <= bits.Len64(M-1); depth++ {
				cfg := Config{Namespace: M, Bits: m, K: 3, Seed: M, Depth: depth}
				rng := rand.New(rand.NewSource(int64(M*m) + int64(depth)))
				seq := make([]uint64, 6)
				for i := range seq {
					seq[i] = rng.Uint64() % M
				}
				ref, err := BuildPruned(cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				half := make([]uint64, 0, M/2)
				for x := uint64(0); x < M; x += 2 {
					half = append(half, x)
				}
				full := ref.NewQueryFilter()
				full.Bits().Fill()
				queries := []*bloom.Filter{ref.NewQueryFilter(), buildQueryFilter(t, ref, seq[:1]), buildQueryFilter(t, ref, half), full}
				for split := 0; split < 1<<(len(seq)-1); split++ {
					tree, err := BuildPruned(cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					start := 0
					for i := range seq {
						if i < len(seq)-1 && split&(1<<i) == 0 {
							continue // seq[i] and seq[i+1] share a batch
						}
						if err := tree.InsertBatch(seq[start : i+1]); err != nil {
							t.Fatal(err)
						}
						what := fmt.Sprintf("M = %d, m = %d, depth %d, batches %b, after %v", M, m, depth, split, seq[:i+1])
						checkForms(t, tree, seq[:i+1], queries, what)
						built, err := BuildPruned(cfg, seq[:i+1])
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(nodeBytes(tree), nodeBytes(built)) {
							t.Fatalf("%s: the grown tree is not BuildPruned's", what)
						}
						start = i + 1
					}
					eachNode(tree.rootNode(), 1, func(n *node, _ uint64) { forms[n.filter().dense == nil]++ })
				}
			}
		}
	}
	if forms[true] == 0 || forms[false] == 0 {
		t.Fatalf("the trees held %d sparse and %d dense nodes: the test does not cover both forms", forms[true], forms[false])
	}
}

// TestSparseLeafCrossesTheRule grows one leaf (a tree of depth 0, m = 640,
// 10 words, so a line of 20 set bits) an id at a time to exactly 19 set
// bits, where it holds their code, then by one id that sets exactly one more
// bit, to 20, where it holds the dense vector: the batch that crosses
// publishes one new box, and a batch of ids the leaf holds publishes none.
// At both counts the tree read back (ReadTree applies the rule to the bits
// it reads) holds the same form.
func TestSparseLeafCrossesTheRule(t *testing.T) {
	cfg := Config{Namespace: 1 << 20, Bits: 640, K: 3, Seed: 7, Depth: 0}
	tree, err := BuildPruned(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	line := 2 * tree.words()
	bitsOf := func(x uint64) map[uint64]bool {
		set := map[uint64]bool{}
		for _, p := range tree.fam.Positions(x, nil) {
			set[p] = true
		}
		return set
	}
	held := map[uint64]bool{}
	adds := func(x uint64) (n uint64) {
		for p := range bitsOf(x) {
			if !held[p] {
				n++
			}
		}
		return n
	}
	var grown []uint64
	grow := func(x uint64) {
		t.Helper()
		for p := range bitsOf(x) {
			held[p] = true
		}
		grown = append(grown, x)
		if err := tree.Insert(x); err != nil {
			t.Fatal(err)
		}
	}
	x := uint64(0)
	for uint64(len(held)) < line-1 {
		for ; uint64(len(held))+adds(x) > line-1; x++ {
		}
		grow(x)
		x++
	}
	root := tree.rootNode()
	if f := root.filter(); f.dense != nil || f.n != line-1 {
		t.Fatalf("a leaf of %d set bits, one short of the line at %d: dense %v, %d positions", len(held), line, f.dense != nil, f.n)
	}
	checkForms(t, tree, grown, nil, "one short of the line")
	checkForms(t, readBack(t, tree), grown, nil, "one short of the line, read back")
	stamp := root.stamp()
	if err := tree.InsertBatch(grown); err != nil {
		t.Fatal(err)
	}
	if root.stamp() != stamp {
		t.Fatal("a batch of ids the sparse leaf holds published a new box")
	}
	for ; adds(x) != 1; x++ {
	}
	grow(x)
	if f := root.filter(); f.dense == nil || f.count() != line {
		t.Fatalf("a leaf of %d set bits, the line at %d: dense %v", f.count(), line, f.dense != nil)
	}
	if root.stamp() <= stamp {
		t.Fatal("the batch that crossed the line published no new box")
	}
	checkForms(t, tree, grown, nil, "on the line")
	checkForms(t, readBack(t, tree), grown, nil, "on the line, read back")
	stamp = root.stamp()
	if err := tree.InsertBatch(grown); err != nil {
		t.Fatal(err)
	}
	if root.stamp() != stamp {
		t.Fatal("a batch of ids the dense leaf holds published a new box")
	}
}

// TestWriteToIsTheDenseEncodingWithSparseLeaves writes a pruned tree whose
// leaves hold their positions: the stream must be the header, the child
// masks and each leaf's dense vector as bitset.Set encodes it — what the
// tree wrote when every node was dense — and ReadTree of it must hold the
// same forms and write the same bytes again.
func TestWriteToIsTheDenseEncodingWithSparseLeaves(t *testing.T) {
	cfg := Config{Namespace: 1 << 16, Bits: 4096, K: 3, HashKind: hashfam.KindFast, Seed: 3, Depth: 6}
	ids := uniformSet(rand.New(rand.NewSource(4)), cfg.Namespace, 600)
	tree, err := BuildPruned(cfg, ids)
	if err != nil {
		t.Fatal(err)
	}
	if _, leaves := sparseNodes(tree); leaves == 0 {
		t.Fatal("no leaf is sparse: the test covers nothing")
	}
	want := bytes.NewBuffer(treeHeader(treeMagic, tree.cfg, true, true))
	var walk func(n *node)
	walk = func(n *node) {
		left, right := n.children()
		want.WriteByte(b2u8(left != nil) | b2u8(right != nil)<<1)
		if left == nil && right == nil {
			b, _ := tree.bloomOf(n).Bits().MarshalBinary()
			want.Write(b)
		}
		for _, c := range []*node{left, right} {
			if c != nil {
				walk(c)
			}
		}
	}
	walk(tree.rootNode())
	got := treeBytes(t, tree)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("WriteTo of a tree with sparse leaves is not the dense encoding")
	}
	back, err := ReadTree(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(treeBytes(t, back), got) || !bytes.Equal(nodeBytes(back), nodeBytes(tree)) {
		t.Fatal("a tree read back writes different bytes")
	}
	s1, l1 := sparseNodes(tree)
	s2, l2 := sparseNodes(back)
	if s1 != s2 || l1 != l2 || back.MemoryBytes() != heldBytes(tree) {
		t.Fatalf("read back: %d sparse nodes (%d leaves), %d bytes; written: %d (%d), %d held", s2, l2, back.MemoryBytes(), s1, l1, heldBytes(tree))
	}
	checkForms(t, back, ids, []*bloom.Filter{buildQueryFilter(t, back, ids[:50])}, "read back")
}

// TestServedShapesSparseWhereLeavesAreSparse grows the served benchmark's
// trees as their set-ups do, in batches of at most 50 000 ids: point_http's
// and mixed_wal's (M = 10⁵, m = 27 341 in 428 words; leaves of ≈ 390 ids,
// ≈ 1 147 set bits against a line of 856) hold no sparse node, and
// batch_bin's (M = 10⁶, m = 273 404 in 4 272 words, a line of 8 544;
// 148 k ids occupied) holds its 128 leaves, 1.3 % full, and the 64 nodes
// above them, 2.5 % full, as their codes and every other node dense, in
// under half of what every node dense takes (8.84 MB).
func TestServedShapesSparseWhereLeavesAreSparse(t *testing.T) {
	for _, shape := range []struct {
		name           string
		plan           int // servedShapes' index of its plan
		keys, perKey   int
		sparse, leaves int
	}{
		{"point_http", 1, 2_000, 1_000, 0, 0},
		{"mixed_wal", 1, 1_000, 500, 0, 0},
		{"batch_bin", 0, 16, 10_000, 192, 128},
	} {
		cfg := servedConfig(t, shape.plan)
		tree, err := BuildPruned(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		var batch []uint64
		for k := 0; k < shape.keys; k++ {
			set := uniformSet(rng, cfg.Namespace, shape.perKey)
			if len(batch)+len(set) > 50_000 {
				if err := tree.InsertBatch(batch); err != nil {
					t.Fatal(err)
				}
				batch = nil
			}
			batch = append(batch, set...)
		}
		if err := tree.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		sparse, leaves := sparseNodes(tree)
		if sparse != shape.sparse || leaves != shape.leaves {
			t.Fatalf("%s: %d sparse nodes, %d of them leaves; want %d, %d", shape.name, sparse, leaves, shape.sparse, shape.leaves)
		}
		dense := tree.Nodes()*tree.words()*8 + tree.grownBytes.Load()
		if got := tree.MemoryBytes(); got != heldBytes(tree)+tree.grownBytes.Load() || (shape.sparse > 0 && got > dense/2) {
			t.Fatalf("%s: MemoryBytes %d, every node dense %d", shape.name, got, dense)
		}
		t.Logf("%s: %d nodes, %d sparse; MemoryBytes %.2f MB, every node dense %.2f MB", shape.name, tree.Nodes(), sparse,
			float64(tree.MemoryBytes())/1e6, float64(dense)/1e6)
	}
}

// TestConcurrentDrawsWhileSparseLeavesGrow has readers draw, reconstruct and
// write a pruned tree out while a writer grows its sparse leaves across the
// rule (m = 4 096, 64 words; 64 leaves that reach 64 set bits after ≈ 22
// ids): small batches, then one of GrowRun ids, which forks at GOMAXPROCS
// above 1. Every draw must be a positive of its query, every reconstruction
// under PruneByAndBits must hold the query's ids (all grown before the
// readers start), every written tree must load, and the tree must end as
// BuildPruned's over every id.
func TestConcurrentDrawsWhileSparseLeavesGrow(t *testing.T) {
	const M = 1 << 16
	cfg := Config{Namespace: M, Bits: 4096, K: 3, HashKind: hashfam.KindFast, Seed: 5, Depth: 6}
	rng := rand.New(rand.NewSource(6))
	first := uniformSet(rng, M, 64)
	tree, err := BuildPruned(cfg, first)
	if err != nil {
		t.Fatal(err)
	}
	if _, leaves := sparseNodes(tree); leaves == 0 {
		t.Fatal("no leaf starts sparse")
	}
	q := buildQueryFilter(t, tree, first[:20])
	var batches [][]uint64
	for range 12 {
		batches = append(batches, uniformSet(rng, M, 100))
	}
	batches = append(batches, uniformSet(rng, M, GrowRun))

	done := make(chan struct{})
	var wg, started sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		started.Add(1)
		go func(r int) {
			defer wg.Done()
			ready := sync.OnceFunc(started.Done)
			defer ready()
			rng := rand.New(rand.NewSource(int64(r)))
			v := tree.VersionFor(q)
			for i := 0; ; i++ {
				if i == 3 {
					ready() // one of each read done before the growth starts
				}
				select {
				case <-done:
					return
				default:
				}
				switch i % 3 {
				case 0:
					x, _, err := tree.SampleVersion(q, rng, &Ops{}, nil, v, nil)
					if err != nil || !q.Contains(x) {
						t.Errorf("a draw returned %d, %v: not a positive", x, err)
						return
					}
				case 1:
					got, err := tree.Reconstruct(q, PruneByAndBits, nil)
					if err != nil {
						t.Error(err)
						return
					}
					for _, x := range first[:20] {
						if _, ok := slices.BinarySearch(got, x); !ok {
							t.Errorf("a reconstruction lost id %d", x)
							return
						}
					}
				case 2:
					var buf bytes.Buffer
					if _, err := tree.WriteTo(&buf); err != nil {
						t.Error(err)
						return
					}
					if _, err := ReadTree(&buf); err != nil {
						t.Errorf("a tree written while it grew does not load: %v", err)
						return
					}
				}
			}
		}(r)
	}
	started.Wait()
	all := slices.Clone(first)
	for _, b := range batches {
		if err := tree.InsertBatch(b); err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	close(done)
	wg.Wait()
	built, err := BuildPruned(cfg, all)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nodeBytes(tree), nodeBytes(built)) {
		t.Fatal("the tree grown beside readers is not BuildPruned's")
	}
	if _, leaves := sparseNodes(tree); leaves != 0 {
		t.Fatalf("%d leaves still sparse: the growth did not cross the rule everywhere", leaves)
	}
	checkForms(t, tree, all, []*bloom.Filter{q}, "after concurrent growth")
}

// TestRefusedBatchRecordsNothing: once the occupancy bitmap exists, a call
// whose out-of-range id sits in a later list than ids the tree lacks is
// refused before the earlier list's ids are grown or recorded.
func TestRefusedBatchRecordsNothing(t *testing.T) {
	const M = 1 << 12
	cfg := Config{Namespace: M, Bits: 512, K: 3, Seed: 2, Depth: 4}
	tree, err := BuildPruned(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.InsertBatch(uniformSet(rand.New(rand.NewSource(2)), M, 300)); err != nil {
		t.Fatal(err)
	}
	if tree.grown == nil {
		t.Fatal("no occupancy bitmap: the test covers nothing")
	}
	grown, nodes, stamp := slices.Clone(tree.grown), nodeBytes(tree), tree.rootNode().stamp()
	var lacking []uint64
	for x := uint64(0); x < M && len(lacking) < 5; x++ {
		if tree.grown[x/64]&(1<<(x%64)) == 0 {
			lacking = append(lacking, x)
		}
	}
	err = tree.InsertBatch(lacking, []uint64{7, M + 3, 9})
	if err == nil || err.Error() != fmt.Sprintf("core: id %d outside namespace [0,%d)", M+3, M) {
		t.Fatalf("refused with %v", err)
	}
	if !slices.Equal(tree.grown, grown) || !bytes.Equal(nodeBytes(tree), nodes) || tree.rootNode().stamp() != stamp {
		t.Fatal("a refused call grew the tree or recorded its first list")
	}
}

// TestNodeAboveTwoSparseLeavesHoldsPositions grows a tree of depth 1
// (m = 640: 10 words, a line of 20 set bits) an id a batch, the two halves
// in turn, until the root holds as many set bits as its vector has words —
// where it held the dense vector while the line was m/64 — and both leaves
// hold their positions: the root must hold its positions too, as the nodes
// above batch_bin's leaves do. Grown on until the root reaches the line with
// both leaves still under it, the root must hold the dense vector, published
// by the batch that crossed.
func TestNodeAboveTwoSparseLeavesHoldsPositions(t *testing.T) {
	cfg := Config{Namespace: 1 << 10, Bits: 640, K: 3, Seed: 7, Depth: 1}
	tree, err := BuildPruned(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	words, line := tree.words(), tree.line()
	root := func() *node { return tree.rootNode() }
	var grown []uint64
	next := [2]uint64{0, cfg.Namespace / 2}
	grow := func() {
		t.Helper()
		x := next[len(grown)%2]
		next[len(grown)%2]++
		grown = append(grown, x)
		if err := tree.Insert(x); err != nil {
			t.Fatal(err)
		}
	}
	for len(grown) < 2 || root().filter().count() < words {
		grow()
	}
	left, right := root().children()
	if f := root().filter(); f.dense != nil || !left.sparse() || !right.sparse() {
		t.Fatalf("a root of %d set bits (%d words, a line of %d) above leaves of %d and %d: root dense %v, leaves sparse %v and %v",
			f.count(), words, line, left.filter().count(), right.filter().count(), f.dense != nil, left.sparse(), right.sparse())
	}
	full := tree.NewQueryFilter()
	full.Bits().Fill()
	queries := []*bloom.Filter{tree.NewQueryFilter(), buildQueryFilter(t, tree, grown[:1]), buildQueryFilter(t, tree, grown), full}
	checkForms(t, tree, grown, queries, "a root of as many set bits as words")
	checkForms(t, readBack(t, tree), grown, queries, "a root of as many set bits as words, read back")
	stamp := root().stamp()
	for root().filter().count() < line {
		stamp = root().stamp()
		grow()
	}
	left, right = root().children()
	if f := root().filter(); f.dense == nil || !left.sparse() || !right.sparse() || root().stamp() == stamp {
		t.Fatalf("a root of %d set bits (a line of %d) above leaves of %d and %d: dense %v, leaves sparse %v and %v, new box %v",
			f.count(), line, left.filter().count(), right.filter().count(), f.dense != nil, left.sparse(), right.sparse(), root().stamp() != stamp)
	}
	checkForms(t, tree, grown, queries, "a root on the line")
}

// FuzzNodePositions holds the positions form's code to its definition
// (gapCode) for any ascending list of positions below m, read from gap
// bytes as the code reads them (0xff and 32 bits a long gap): coded from a
// dense vector (codeNoted, under holdVector and hold) it is gapCode's
// bytes; it reads back as the list (all, scratch.set), and a released
// scratch is all zero again; the union of its two halves in a scratch
// (set, hold) is the same code; and setIn at every need is the number of
// positions set in a query vector over the fewest blocks of 64 positions
// whose count reaches need (all of them when none does), which is the
// dense AND count at need past every position.
func FuzzNodePositions(f *testing.F) {
	f.Add(uint32(640), int64(1), uint8(128), []byte{0, 1, 2, 0xfe, 0x10, 0x20, 0, 0})
	f.Add(uint32(1<<20-3), int64(2), uint8(20), []byte{0xff, 0, 1, 0, 0, 3, 0xff, 0xff, 0xff, 0, 0, 7})
	f.Add(uint32(273_404), int64(3), uint8(250), bytes.Repeat([]byte{63, 64, 200, 0}, 300))
	f.Fuzz(func(t *testing.T, bitsM uint32, seed int64, fill uint8, gaps []byte) {
		m := uint64(bitsM)%(1<<20) + 2
		var pos []uint32
		for i, p := 0, int64(-1); i < len(gaps); i++ {
			g := int64(gaps[i])
			if g == 0xff && i+4 < len(gaps) {
				g = int64(binary.LittleEndian.Uint32(gaps[i+1:]))
				i += 4
			}
			if p += g + 1; p >= int64(m) {
				break
			}
			pos = append(pos, uint32(p))
		}
		n := uint64(len(pos))
		v := bitset.New(m)
		for _, p := range pos {
			v.Set(uint64(p))
		}
		want := gapCode(pos)

		words := slices.Clone(v.Raw())
		notes := make([]uint64, (len(words)+63)/64)
		for i, w := range words {
			if w != 0 {
				notes[i/64] |= 1 << (i % 64)
			}
		}
		buf := make([]byte, 5*n+slack)
		if k := codeNoted(buf, words, notes); !bytes.Equal(buf[:k], want) {
			t.Fatalf("codeNoted of %v wrote %x, want %x", pos, buf[:k], want)
		}
		if !slices.Equal(words, v.Raw()) {
			t.Fatal("codeNoted changed the vector it coded")
		}
		nf := nodeFilter{code: want, n: n}
		if got := nf.positions(); !slices.Equal(got, pos) {
			t.Fatalf("the code of %v reads back as %v", pos, got)
		}

		tree, err := BuildPruned(Config{Namespace: 2, Bits: m, K: 1, HashKind: hashfam.KindFast, Seed: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := tree.scratchFor()
		if fresh := s.set(&nf); fresh != n || !slices.Equal(s.words, v.Raw()) {
			t.Fatalf("set of %d positions found %d clear and set other words", n, fresh)
		}
		tree.release(s)
		if slices.ContainsFunc(s.words, func(w uint64) bool { return w != 0 }) || slices.ContainsFunc(s.notes, func(w uint64) bool { return w != 0 }) {
			t.Fatal("a released scratch holds a word or a note")
		}
		if n > 0 && n < tree.line() {
			var halves [2][]uint32
			for i, p := range pos {
				h := (i + int(seed&1)) % 2
				halves[h] = append(halves[h], p)
			}
			a := nodeFilter{code: gapCode(halves[0]), n: uint64(len(halves[0]))}
			b := nodeFilter{code: gapCode(halves[1]), n: uint64(len(halves[1]))}
			s := tree.scratchFor()
			s.set(&a)
			if fresh := s.set(&b); fresh != b.n {
				t.Fatalf("%d of the second half's %d positions found clear", fresh, b.n)
			}
			if u := tree.hold(s, n); !u.equal(&nf) {
				t.Fatalf("the union of %v and %v holds %x, want %x", halves[0], halves[1], u.code, want)
			}
			tree.release(s)
		}

		q := bitset.New(m) // each position set in it with odds fill/256, and as many bits anywhere
		rng := rand.New(rand.NewSource(seed))
		for _, p := range pos {
			if rng.Intn(256) < int(fill) {
				q.Set(uint64(p))
			}
			q.Set(rng.Uint64() % m)
		}
		var hits []uint64 // hits[j]: positions set in q among the first 64·j
		c := uint64(0)
		for i, p := range pos {
			if i%64 == 0 {
				hits = append(hits, c)
			}
			if q.Test(uint64(p)) {
				c++
			}
		}
		hits = append(hits, c)
		if and := v.AndCount(q); and != c || nf.setIn(q.Raw(), math.MaxUint64) != and {
			t.Fatalf("%d of %d positions set in q, AND count %d, setIn %d", c, n, and, nf.setIn(q.Raw(), math.MaxUint64))
		}
		for need := uint64(0); need <= n+1; need++ {
			j := 0
			for j < len(hits)-1 && hits[j] < need {
				j++
			}
			if got := nf.setIn(q.Raw(), need); got != hits[j] {
				t.Fatalf("setIn at need %d counted %d, want %d (blocks %v)", need, got, hits[j], hits)
			}
		}
	})
}

// BenchmarkNodeEstimate estimates one of batch_bin's leaves (≈ 3 460 set
// bits, 1.3 % of m = 273 404) and one node of the level above them
// (≈ 6 870), each held in both forms, against one of the shape's query
// filters: the cost of the rule's line, at 2·m/64 = 8 544 set bits.
func BenchmarkNodeEstimate(b *testing.B) {
	tree, queries := batchShape(b)
	var leaf, above *node
	eachNode(tree.rootNode(), 1, func(n *node, pos uint64) {
		switch {
		case leaf == nil && bits.Len64(pos)-1 == tree.Depth():
			leaf = n
		case above == nil && bits.Len64(pos) == tree.Depth():
			above = n
		}
	})
	for _, at := range []struct {
		name string
		n    *node
	}{{"leaf", leaf}, {"level6", above}} {
		code := *at.n.filter()
		if code.dense != nil {
			b.Fatalf("%s: the node holds its dense vector", at.name)
		}
		dense := nodeFilter{dense: tree.bloomOf(at.n)}
		for _, form := range []struct {
			name string
			f    *nodeFilter
		}{{"code", &code}, {"dense", &dense}} {
			b.Run(at.name+"/"+form.name, func(b *testing.B) {
				b.ReportMetric(float64(code.n), "bits")
				for i := 0; i < b.N; i++ {
					form.f.estimate(queries[i%len(queries)])
				}
			})
		}
	}
}
