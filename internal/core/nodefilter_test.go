package core

import (
	"bytes"
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

// vector returns f's bits as a dense vector of m bits of its own: what the
// node would hold if every node were dense.
func (f *nodeFilter) vector(m uint64) *bitset.Set {
	if f.dense != nil {
		return f.dense.Bits().Clone()
	}
	v := bitset.New(m)
	for _, p := range f.pos {
		v.Set(uint64(p))
	}
	return v
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
// from each node's dense bits: 4 bytes a set bit while there are fewer than
// m/64 of them, m/8 from there.
func heldBytes(tree *Tree) (held uint64) {
	words := (tree.cfg.Bits + 63) / 64
	eachNode(tree.rootNode(), 1, func(n *node, _ uint64) {
		if c := tree.bloomOf(n).SetBits(); c < words {
			held += 4 * c
		} else {
			held += 8 * words
		}
	})
	return held
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
	words := tree.words()
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
		if sparse, c := f.dense == nil, want.SetBits(); sparse != (c < words) || (sparse && !slices.IsSorted(f.pos)) {
			t.Fatalf("%s: [%d, %d) with %d of %d words' bits set is sparse: %v, positions %v", what, n.lo, n.hi, c, words, sparse, f.pos)
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
// 2 to 16 ids at every depth it allows and two filter sizes (2 words, where
// a node of one id or none is sparse, and 16, where a leaf of five is), a
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
// 10 words) an id at a time to exactly 9 set bits, where it holds their
// positions, then by one id that sets exactly one more bit, to 10, where it
// holds the dense vector: the batch that crosses publishes one new box, and
// a batch of ids the leaf holds publishes none. At both counts the tree
// read back (ReadTree applies the rule to the bits it reads) holds the
// same form.
func TestSparseLeafCrossesTheRule(t *testing.T) {
	cfg := Config{Namespace: 1 << 20, Bits: 640, K: 3, Seed: 7, Depth: 0}
	tree, err := BuildPruned(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	words := tree.words()
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
	for uint64(len(held)) < words-1 {
		for ; uint64(len(held))+adds(x) > words-1; x++ {
		}
		grow(x)
		x++
	}
	root := tree.rootNode()
	if f := root.filter(); f.dense != nil || uint64(len(f.pos)) != words-1 {
		t.Fatalf("a leaf of %d set bits, one short of %d words: dense %v, %d positions", len(held), words, f.dense != nil, len(f.pos))
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
	if f := root.filter(); f.dense == nil || f.count() != words {
		t.Fatalf("a leaf of %d set bits, %d words: dense %v", f.count(), words, f.dense != nil)
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
// all of them occupied) hold no sparse node, and batch_bin's (M = 10⁶,
// m = 273 404 in 4 272 words; 148 k ids occupied) holds its 128 leaves,
// 1.3 % full, as their positions and every other node dense, for about 6.2 MB
// where every node dense took 8.84.
func TestServedShapesSparseWhereLeavesAreSparse(t *testing.T) {
	for _, shape := range []struct {
		name         string
		plan         int // servedShapes' index of its plan
		keys, perKey int
		sparse       int
	}{
		{"point_http", 1, 2_000, 1_000, 0},
		{"mixed_wal", 1, 1_000, 500, 0},
		{"batch_bin", 0, 16, 10_000, 128},
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
		if sparse != shape.sparse || leaves != shape.sparse {
			t.Fatalf("%s: %d sparse nodes, %d of them leaves; want %d leaves", shape.name, sparse, leaves, shape.sparse)
		}
		dense := tree.Nodes()*tree.words()*8 + tree.grownBytes.Load()
		if got := tree.MemoryBytes(); got != heldBytes(tree)+tree.grownBytes.Load() || (shape.sparse > 0 && got > dense*3/4) {
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
