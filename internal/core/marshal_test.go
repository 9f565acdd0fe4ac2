package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bitset"
)

func TestTreeSaveLoadFull(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := testConfig(t, 50000, 300, 0.9, 6)
	tree, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTree(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Nodes() != tree.Nodes() || got.Depth() != tree.Depth() ||
		got.Namespace() != tree.Namespace() || got.Pruned() != tree.Pruned() {
		t.Fatalf("metadata mismatch: %d/%d nodes, %d/%d depth",
			got.Nodes(), tree.Nodes(), got.Depth(), tree.Depth())
	}
	// The loaded tree must behave identically: same reconstruction for
	// the same query.
	set := uniformSet(rng, 50000, 300)
	q1 := buildQueryFilter(t, tree, set)
	q2 := buildQueryFilter(t, got, set)
	r1, err := tree.Reconstruct(q1, PruneByAndBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := got.Reconstruct(q2, PruneByAndBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatalf("reconstructions differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("reconstructions differ at %d", i)
		}
	}
	// And sampling must work.
	if _, err := got.Sample(q2, rng, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTreeSaveLoadPruned(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := testConfig(t, 1<<20, 200, 0.9, 10)
	occupied := uniformSet(rng, 1<<20, 2000)
	tree, err := BuildPruned(cfg, occupied)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTree(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Nodes() != tree.Nodes() || !got.Pruned() {
		t.Fatalf("pruned metadata lost: %d vs %d nodes, pruned=%v",
			got.Nodes(), tree.Nodes(), got.Pruned())
	}
	// Dynamic insert must keep working on the loaded tree.
	before := got.Nodes()
	if err := got.Insert(uint64(1<<20 - 1)); err != nil {
		t.Fatal(err)
	}
	if got.Nodes() < before {
		t.Fatal("insert shrank tree")
	}
	q := buildQueryFilter(t, got, occupied[:50])
	if _, err := got.Sample(q, rng, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTreeSaveLoadEmptyPruned(t *testing.T) {
	cfg := testConfig(t, 10000, 100, 0.9, 5)
	tree, err := BuildPruned(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTree(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Nodes() != 0 {
		t.Fatalf("empty tree loaded with %d nodes", got.Nodes())
	}
	if err := got.Insert(42); err != nil {
		t.Fatal(err)
	}
}

func TestReadTreeRejectsCorrupt(t *testing.T) {
	if _, err := ReadTree(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadTree(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	cfg := testConfig(t, 10000, 100, 0.9, 4)
	tree, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := ReadTree(bytes.NewReader(full[:len(full)/2])); err == nil {
		t.Fatal("truncated tree accepted")
	}
	// The root's child mask follows the header: no children (a leaf above
	// the leaves), one child (in a full tree), a bit no mask has.
	hdrLen := len(treeHeader(treeMagic, tree.cfg, false, true))
	for _, mask := range []byte{0, 1, 2, 4 | 3} {
		bad := slices.Clone(full)
		bad[hdrLen] = mask
		if _, err := ReadTree(bytes.NewReader(bad)); err == nil {
			t.Fatalf("root child mask %d accepted", mask)
		}
	}
	// A BST1 stream whose root range is not the namespace: its hi, after
	// the header and lo, overwritten with 0.
	bad := nodeBytes(tree)
	clear(bad[hdrLen+8 : hdrLen+16])
	if _, err := ReadTree(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt root range accepted")
	}
}

// TestWriteToStoresTheLeavesAlone holds the encoding to what a reader cannot
// derive: the header, one child mask a node and one vector a leaf, so a full
// tree's stream is about half its nodes' vectors and a pruned one's holds
// one vector a leaf it allocated.
func TestWriteToStoresTheLeavesAlone(t *testing.T) {
	cfg := testConfig(t, 10000, 100, 0.9, 4)
	ids := uniformSet(rand.New(rand.NewSource(5)), 10000, 40)
	full, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := BuildPruned(cfg, ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, tree := range []*Tree{full, pruned} {
		_, leaves := measureLeaves(tree.rootNode())
		want := len(treeHeader(treeMagic, tree.cfg, tree.pruned, true)) + int(tree.Nodes()) + leaves*int(bitset.EncodedLen(cfg.Bits))
		if got := len(treeBytes(t, tree)); got != want {
			t.Fatalf("pruned %v: %d nodes, %d leaves encode in %d bytes, want %d", tree.Pruned(), tree.Nodes(), leaves, got, want)
		}
	}
}

// measureLeaves returns the nodes under n, n included, and how many of them
// are leaves.
func measureLeaves(n *node) (nodes, leaves int) {
	if n == nil {
		return 0, 0
	}
	left, right := n.children()
	if left == nil && right == nil {
		return 1, 1
	}
	ln, ll := measureLeaves(left)
	rn, rl := measureLeaves(right)
	return 1 + ln + rn, ll + rl
}

// TestReadTreeReadsBST1 loads full, pruned and grown trees from the BST1
// layout, which stored every node's range and vector: each loads to the tree
// it was written from, node for node, and writes the BST2 bytes that tree
// writes.
func TestReadTreeReadsBST1(t *testing.T) {
	cfg := testConfig(t, 10000, 100, 0.9, 4)
	ids := uniformSet(rand.New(rand.NewSource(6)), 10000, 400)
	full, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := BuildPruned(cfg, ids[:200])
	if err != nil {
		t.Fatal(err)
	}
	grown, err := BuildPruned(cfg, ids[:100])
	if err != nil {
		t.Fatal(err)
	}
	if err := grown.InsertBatch(ids[100:]); err != nil {
		t.Fatal(err)
	}
	empty, err := BuildPruned(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tree := range []*Tree{full, pruned, grown, empty} {
		got, err := ReadTree(bytes.NewReader(nodeBytes(tree)))
		if err != nil {
			t.Fatalf("pruned %v, %d nodes: %v", tree.Pruned(), tree.Nodes(), err)
		}
		if !bytes.Equal(nodeBytes(got), nodeBytes(tree)) || !bytes.Equal(treeBytes(t, got), treeBytes(t, tree)) ||
			got.Nodes() != tree.Nodes() || got.LeafIDs() != tree.LeafIDs() {
			t.Fatalf("pruned %v, %d nodes: the BST1 stream loads to another tree", tree.Pruned(), tree.Nodes())
		}
	}
}

// TestReadTreeMendsANodeThatIsNotItsChildrensUnion flips, one at a time,
// each bit of the root's first filter word of a full and of a pruned tree in
// the BST1 layout, which stored every node's vector, as a tree saved while
// a batch grew it could: the root is given its children's union, so the
// tree loads to the one it was saved from, and the pruned one then grows
// like BuildPruned. (BST2 stores no internal vector to mend.)
func TestReadTreeMendsANodeThatIsNotItsChildrensUnion(t *testing.T) {
	cfg := testConfig(t, 10000, 100, 0.9, 4)
	rng := rand.New(rand.NewSource(4))
	ids := uniformSet(rng, 10000, 400)
	full, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := BuildPruned(cfg, ids[:300])
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildPruned(cfg, ids)
	if err != nil {
		t.Fatal(err)
	}
	// The root's first filter word follows the header, its range (16
	// bytes), its payload length (4) and the vector's length (8).
	word := len(treeHeader(legacyTreeMagic, cfg, false, true)) + 16 + 4 + 8
	var missing, extra int
	for _, tree := range []*Tree{full, pruned} {
		good := nodeBytes(tree)
		for bit := range 64 {
			bad := slices.Clone(good)
			bad[word+bit/8] ^= 1 << (bit % 8)
			if bad[word+bit/8]&(1<<(bit%8)) == 0 {
				missing++
			} else {
				extra++
			}
			got, err := ReadTree(bytes.NewReader(bad))
			if err != nil {
				t.Fatalf("pruned %v, root bit %d flipped: %v", tree.Pruned(), bit, err)
			}
			if !bytes.Equal(nodeBytes(got), good) {
				t.Fatalf("pruned %v, root bit %d flipped: the root was not mended to its children's union", tree.Pruned(), bit)
			}
			if !tree.Pruned() {
				continue
			}
			if err := got.InsertBatch(ids[300:]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(nodeBytes(got), nodeBytes(want)) {
				t.Fatalf("root bit %d flipped: the mended tree grows unlike BuildPruned", bit)
			}
		}
	}
	if missing == 0 || extra == 0 {
		t.Fatalf("%d flips cleared a bit and %d set one; both kinds are wanted", missing, extra)
	}
}

// TestBuildTreeIsTheSameAtAnyGOMAXPROCS holds BuildTree's concurrent top
// levels to the serial recursion: at every GOMAXPROCS the tree encodes to
// the bytes of the GOMAXPROCS-1 build and counts the same nodes and leaf
// ids. The namespaces include a depth-1 tree, ranges that stop splitting
// above the planned depth, and trees shallower than the fork levels.
func TestBuildTreeIsTheSameAtAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	build := func(cfg Config, procs int) ([]byte, uint64, uint64) {
		runtime.GOMAXPROCS(procs)
		tree, err := BuildTree(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if _, err := tree.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes(), tree.Nodes(), tree.LeafIDs()
	}
	for _, c := range []struct {
		M, n  uint64
		depth int
	}{
		{2, 1, 1}, {3, 1, 2}, {5, 2, 3}, {5000, 100, 6}, {100000, 500, 7}, {1000003, 500, 10},
	} {
		cfg := testConfig(t, c.M, c.n, 0.8, c.depth)
		wantBytes, wantNodes, wantLeafIDs := build(cfg, 1)
		for _, procs := range []int{1, 2, 3, 4, 16} {
			got, nodes, leafIDs := build(cfg, procs)
			if nodes != wantNodes || leafIDs != wantLeafIDs || !bytes.Equal(got, wantBytes) {
				t.Fatalf("M=%d depth=%d GOMAXPROCS=%d: %d nodes, %d leaf ids, %d bytes; GOMAXPROCS 1 built %d, %d, %d (bytes equal: %v)",
					c.M, c.depth, procs, nodes, leafIDs, len(got), wantNodes, wantLeafIDs, len(wantBytes), bytes.Equal(got, wantBytes))
			}
		}
	}
}

func TestComputeStats(t *testing.T) {
	cfg := testConfig(t, 100000, 500, 0.9, 7)
	tree, err := BuildTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := tree.ComputeStats()
	if len(s.Levels) != 8 { // depth 7 → levels 0..7
		t.Fatalf("levels = %d, want 8", len(s.Levels))
	}
	if s.Levels[0].Nodes != 1 || s.Levels[7].Nodes != 128 {
		t.Fatalf("level node counts wrong: %+v", s.Levels)
	}
	// Fill must be non-increasing down the tree (each child holds half
	// the parent's range) and the root saturated for M >> m.
	if s.Levels[0].MeanFill < 0.99 {
		t.Fatalf("root fill %.3f, want ~1", s.Levels[0].MeanFill)
	}
	for i := 1; i < len(s.Levels); i++ {
		if s.Levels[i].MeanFill > s.Levels[i-1].MeanFill+1e-9 {
			t.Fatalf("fill increased at level %d", i)
		}
		if s.Levels[i].MinFill > s.Levels[i].MaxFill {
			t.Fatalf("level %d min > max", i)
		}
	}
	if s.SaturationDepth == 0 || s.SaturationDepth > 8 {
		t.Fatalf("saturation depth %d", s.SaturationDepth)
	}
	if s.Nodes != tree.Nodes() || s.MemoryBytes != tree.MemoryBytes() {
		t.Fatal("stats totals mismatch")
	}
}

func TestComputeStatsEmptyTree(t *testing.T) {
	cfg := testConfig(t, 10000, 100, 0.9, 5)
	tree, err := BuildPruned(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := tree.ComputeStats()
	if len(s.Levels) != 0 || s.Nodes != 0 {
		t.Fatalf("empty tree stats: %+v", s)
	}
}
