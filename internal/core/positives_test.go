package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/bloom"
	"repro/internal/hashfam"
)

// naivePositives is what a version's table is held to: every id of every
// leaf's range that q answers for, one Contains at a time.
func naivePositives(tree *Tree, q *bloom.Filter) []uint64 {
	var out []uint64
	eachLeaf(tree, func(n *node) {
		for x := n.lo; x < n.hi; x++ {
			if q.Contains(x) {
				out = append(out, x)
			}
		}
	})
	slices.Sort(out)
	return out
}

// eachLeaf calls visit with every leaf of the tree.
func eachLeaf(tree *Tree, visit func(n *node)) {
	eachNode(tree.rootNode(), 1, func(n *node, _ uint64) {
		if left, right := n.children(); left == nil && right == nil {
			visit(n)
		}
	})
}

// scanPrice is what the tree's LeafIDs is held to: the ids one scan of every
// leaf tests, added up leaf by leaf.
func scanPrice(tree *Tree) (price uint64) {
	eachLeaf(tree, func(n *node) { price += n.hi - n.lo })
	return price
}

// packed packs ids with no budget.
func packed(ids []uint64) *Positives {
	pk := newPositivesPacker(0)
	for _, x := range ids {
		pk.add(x)
	}
	return pk.finish()
}

// checkTable holds p to ids: its length, Select at every index, and the
// whole-table read — into nothing, and behind an id a slice already holds,
// which it keeps — to Select at every index.
func checkTable(t *testing.T, p *Positives, ids []uint64) {
	t.Helper()
	if p.Len() != len(ids) {
		t.Fatalf("table of %d ids, want %d", p.Len(), len(ids))
	}
	for i, x := range ids {
		if got := p.Select(i); got != x {
			t.Fatalf("Select(%d) = %d, want %d", i, got, x)
		}
	}
	if got := p.AppendAll(nil); !slices.Equal(got, ids) {
		t.Fatalf("table unpacks to %v, want %v", got, ids)
	}
	got := p.AppendAll([]uint64{9})
	if len(got) != 1+p.Len() || got[0] != 9 {
		t.Fatalf("a read of %d ids behind one id returned %d, the first %d", p.Len(), len(got), got[0])
	}
	for i, x := range got[1:] {
		if x != p.Select(i) {
			t.Fatalf("the read's id %d is %d, Select(%d) = %d", i, x, i, p.Select(i))
		}
	}
}

// checkExact holds Exact to want on v, which has paid for its one scan and
// kept the table or declined, and on a version of the same bits that has paid
// nothing. A kept table is the one Exact returns, with no further scan; a
// declined version scans into a table it does not keep, every call, and
// declines once; the cold version pays whatever it owes at the first call.
func checkExact(t *testing.T, name string, tree *Tree, v *Version, want []uint64, kept bool) {
	t.Helper()
	if kept {
		if p := v.Exact(); p != v.Positives() || tree.PositivesStats().Scans != 1 {
			t.Fatalf("%s: Exact on a version with its table returned another or scanned (%+v)", name, tree.PositivesStats())
		}
	} else {
		for call := uint64(1); call <= 2; call++ {
			p := v.Exact()
			if p == nil {
				t.Fatalf("%s: Exact on a declined version returned no table", name)
			}
			checkTable(t, p, want)
			if st := tree.PositivesStats(); st.Scans != 1+call || st.Declined != 1 || st.PackedBytes != 0 || v.Positives() != nil || v.pos.Load() != declined {
				t.Fatalf("%s: Exact call %d on a declined version kept something or did not scan (%+v)", name, call, st)
			}
		}
	}
	before := tree.PositivesStats()
	cold := tree.VersionFor(v.q.Clone())
	p := cold.Exact()
	if p == nil {
		t.Fatalf("%s: Exact on a cold version returned no table", name)
	}
	checkTable(t, p, want)
	st := tree.PositivesStats()
	if kept && (cold.Positives() != p || st.Scans != before.Scans+1 || st.Declined != before.Declined) ||
		!kept && (cold.Positives() != nil || st.Scans != before.Scans+2 || st.Declined != before.Declined+1) {
		t.Fatalf("%s: Exact on a cold version (kept=%v): %+v → %+v", name, kept, before, st)
	}
}

// TestPositivesAreTheTruth is the exactness gate, exhaustively on small
// domains: for every namespace 2..512 (a tree needs two ids), every depth
// 0..5 it admits, a full tree and a pruned one of random occupancy, and the
// fused-scan and block-scan hash families, the table a version pays for is
// exactly {x in a leaf : q.Contains(x)} enumerated one id at a time, Select
// returns its i-th element for every i, and it is kept only within the
// filter's own bytes — otherwise the version has declined, for good, and
// still samples by descent — while Exact is that enumeration on every one of
// them, paid up or cold, kept or declined (checkExact). The price of the scan
// is the ids the leaves hold, M on a full tree and what is occupied on a
// pruned one, and the payment that reaches it is the one that scans. The
// query is filled to where its false positives outnumber its members, so a
// scan that pruned a child on §5.6's threshold or on an empty AND would leave
// ids out, and the filter sizes straddle the budget.
func TestPositivesAreTheTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	kept, declinedCount := 0, 0
	for _, kind := range []hashfam.Kind{hashfam.KindFast, hashfam.KindMurmur3} {
		for M := uint64(2); M <= 512; M++ {
			for depth := 0; depth <= 5 && depth <= bits.Len64(M-1); depth++ {
				for _, pruned := range []bool{false, true} {
					cfg := Config{Namespace: M, Bits: 32 << rng.Intn(5), K: 2, HashKind: kind, Seed: M, Depth: depth}
					var tree *Tree
					var err error
					if pruned {
						tree, err = BuildPruned(cfg, uniformSet(rng, M, 1+rng.Intn(int(M))))
					} else {
						tree, err = BuildTree(cfg)
					}
					if err != nil {
						t.Fatal(err)
					}
					q := buildQueryFilter(t, tree, uniformSet(rng, M, rng.Intn(int(M)/4+1)))
					want := naivePositives(tree, q)

					v := tree.VersionFor(q)
					if v.Positives() != nil {
						t.Fatal("a version nobody has drawn from has a table")
					}
					price := tree.LeafIDs()
					if price != scanPrice(tree) || price > M || !pruned && price != M {
						t.Fatalf("M=%d depth=%d pruned=%v: a scan priced at %d ids, the leaves hold %d", M, depth, pruned, price, scanPrice(tree))
					}
					v.Pay(price - 1)
					if v.Positives() != nil || tree.PositivesStats().Scans != 0 {
						t.Fatal("a version scanned before it had tested a scan's worth of ids")
					}
					v.Pay(1)
					name := fmt.Sprintf("%s M=%d depth=%d pruned=%v m=%d", kind, M, depth, pruned, cfg.Bits)
					st := tree.PositivesStats()
					if st.Scans != 1 {
						t.Fatalf("%s: %d scans after the payment that crossed the price", name, st.Scans)
					}
					p := v.Positives()
					if full := packed(want); full.Bytes() > q.SizeBytes() {
						if p != nil || v.pos.Load() != declined || st.Declined != 1 || st.PackedBytes != 0 {
							t.Fatalf("%s: %d B of positives beside a %d B filter were not declined (%+v)", name, full.Bytes(), q.SizeBytes(), st)
						}
						declinedCount++
					} else {
						if p == nil || st.Declined != 0 || st.PackedBytes != p.Bytes() || p.Bytes() != full.Bytes() {
							t.Fatalf("%s: %d B of positives beside a %d B filter were not kept (%+v)", name, full.Bytes(), q.SizeBytes(), st)
						}
						checkTable(t, p, want)
						kept++
					}
					// Either way the scan ran once and the descent still
					// serves a counted draw.
					v.Pay(2 * M)
					if got := tree.PositivesStats().Scans; got != 1 {
						t.Fatalf("%s: a version scanned %d times", name, got)
					}
					if len(want) > 0 {
						x, _, err := tree.SampleVersion(q, rng, new(Ops), nil, v, nil)
						if err != nil && err != ErrNoSample {
							t.Fatal(err)
						}
						if _, found := slices.BinarySearch(want, x); err == nil && !found {
							t.Fatalf("%s: the descent drew %d, not a positive", name, x)
						}
					}
					checkExact(t, name, tree, v, want, p != nil)
				}
			}
		}
	}
	if kept < 1000 || declinedCount < 1000 {
		t.Fatalf("%d tables kept and %d declined: the filter sizes were meant to straddle the budget", kept, declinedCount)
	}
}

// checkPacking holds p to ids beyond checkTable: one skip entry a block,
// holding the block's first id, where its offsets start and the bit length
// of its largest offset; each block's offsets in ⌈ids × width / 8⌉ bytes,
// then the padding; and Bytes counting those and 16 bytes a skip entry. It
// returns the blocks' widths.
func checkPacking(t *testing.T, p *Positives, ids []uint64) (widths []uint) {
	t.Helper()
	checkTable(t, p, ids)
	off := 0
	for b := 0; b*positivesBlock < len(ids); b++ {
		block := ids[b*positivesBlock : min(len(ids), (b+1)*positivesBlock)]
		w := uint(bits.Len64(block[len(block)-1] - block[0]))
		if b >= len(p.skips) || p.skips[b] != (positivesSkip{first: block[0], off: uint32(off), width: uint8(w)}) {
			t.Fatalf("%d ids: block %d's skip entry is not {%d %d %d}", len(ids), b, block[0], off, w)
		}
		widths = append(widths, w)
		off += (len(block)*int(w) + 7) / 8
	}
	if len(ids) > 0 {
		off += positivesPad
	}
	if len(p.skips) != len(widths) || len(p.packed) != off || p.Bytes() != uint64(off+16*len(widths)) {
		t.Fatalf("%d ids: %d skip entries, %d packed bytes, %d B; want %d, %d and %d",
			len(ids), len(p.skips), len(p.packed), p.Bytes(), len(widths), off, off+16*len(widths))
	}
	return widths
}

// blockOfWidth returns n ascending ids from first — fewer if that many do
// not fit — whose offsets from it have bit length w: the largest is drawn
// from [2^(w−1), 2^(w−1) + 2^(w−2)), so that a block can follow it even at
// w = 64, and the others at random below it. One id is a block of width 0.
func blockOfWidth(rng *rand.Rand, first uint64, w uint, n int) []uint64 {
	if n == 1 {
		return []uint64{first}
	}
	half := uint64(1) << (w - 1)
	top := half | rng.Uint64()%half/2
	if top < uint64(n-1) {
		n = int(top) + 1
	}
	offsets := map[uint64]bool{0: true, top: true}
	for len(offsets) < n {
		offsets[1+rng.Uint64()%(top-1)] = true
	}
	ids := make([]uint64, 0, n)
	for d := range offsets {
		ids = append(ids, first+d)
	}
	slices.Sort(ids)
	return ids
}

// plannedIDs returns 11 000 ascending ids 90 apart on average, as the
// positives of a filter at the planned sizes are.
func plannedIDs(rng *rand.Rand) []uint64 {
	ids := make([]uint64, 11_000)
	for i, x := 0, uint64(0); i < len(ids); i++ {
		x += 1 + uint64(rng.ExpFloat64()*90)
		ids[i] = x
	}
	return ids
}

// TestPositivesRangeRead holds the read of a table's whole range, AppendAll,
// to the ids packed and to Select at every index (checkPacking, checkTable)
// — on tables whose gaps run from one id to 2³³ and to the largest id there
// is, so that their blocks' widths do too (ids far wider apart than the small
// namespaces of TestPositivesAreTheTruth can put them).
func TestPositivesRangeRead(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	widths := map[uint]bool{}
	defer func() {
		if len(widths) < 4 || !widths[64] {
			t.Errorf("block widths met: %v — want four or more, 64 among them", widths)
		}
	}()
	for _, count := range []int{0, 1, 63, 64, 65, 200} {
		ids := make([]uint64, count)
		for i, x := 0, uint64(3); i < count; i++ {
			x += 1 + uint64(rng.Intn(300))*uint64(rng.Intn(3))
			if i%7 == 3 {
				x += 1 << (14 + rng.Intn(20)) // three bytes of gap, to five
			}
			ids[i] = x
		}
		if count > 1 {
			ids[count-1] = math.MaxUint64
		}
		p := packed(ids)
		for _, w := range checkPacking(t, p, ids) {
			widths[w] = true
		}
	}
}

// TestPositivesPackingAtTheEdges packs hand-made id lists and checks each by
// Select and AppendAll at every index and the bytes of its layout
// (checkPacking):
//
//   - lists around the block size — 0, 1, 63, 64, 65 and 4 097 ids — that
//     start at 0, pass 2³² and end at the largest id there is, so one offset
//     is as wide as an offset can be;
//   - for every width 1..64, a block of that width alone (64 ids from width
//     7 on, as many as fit below), and from width 7 on that block followed by
//     a last block of one id, of 8 (whose last offset ends on the final byte
//     before the padding, as a full block's does) and of 37: the widths from
//     58 on read offsets that straddle nine bytes;
//   - ids 90 apart on average, the planned sizes, for the bytes an id.
//
// Then the budget, exactly: a scan whose finished table is at the budget
// keeps it, and one byte less declines it.
func TestPositivesPackingAtTheEdges(t *testing.T) {
	for _, count := range []int{0, 1, 63, 64, 65, 4097} {
		ids := make([]uint64, count)
		for i := range ids {
			switch {
			case i == 0:
				ids[i] = 0
			case i == count-1:
				ids[i] = math.MaxUint64
			case i%2 == 1:
				ids[i] = ids[i-1] + 1 // the narrowest gap
			default:
				ids[i] = ids[i-1] + 1<<32 + uint64(i)*977
			}
		}
		if count == 1 {
			ids[0] = math.MaxUint64
		}
		checkPacking(t, packed(ids), ids)
	}

	rng := rand.New(rand.NewSource(2))
	var seen [65]bool // the widths met
	ninthByte, lastOfOne, lastOnByte := 0, 0, 0
	for w := uint(1); w <= 64; w++ {
		block := blockOfWidth(rng, 0, w, positivesBlock)
		tables := [][]uint64{block}
		if len(block) == positivesBlock {
			for _, tail := range []int{1, 8, 37} {
				last := blockOfWidth(rng, block[len(block)-1]+1, min(w, 62), tail)
				tables = append(tables, append(slices.Clone(block), last...))
			}
		}
		for _, ids := range tables {
			widths := checkPacking(t, packed(ids), ids)
			for b, bw := range widths {
				seen[bw] = true
				for j := 0; j < min(positivesBlock, len(ids)-b*positivesBlock); j++ {
					if uint(j)*bw%8+bw > 64 {
						ninthByte++
					}
				}
			}
			n, lw := len(ids)-(len(widths)-1)*positivesBlock, widths[len(widths)-1]
			if n == 1 {
				lastOfOne++
			}
			if lw > 0 && uint(n)*lw%8 == 0 {
				lastOnByte++
			}
		}
	}
	if slices.Contains(seen[1:], false) || ninthByte == 0 || lastOfOne == 0 || lastOnByte == 0 {
		t.Fatalf("widths met %v, %d nine-byte offsets, %d last blocks of one id, %d ending on a byte: want every width 1..64 and each case",
			seen[1:], ninthByte, lastOfOne, lastOnByte)
	}

	// At the planned sizes (ids 90 apart on average) a table is ≈ 1.9 B an id.
	ids := plannedIDs(rng)
	if perID := float64(packed(ids).Bytes()) / float64(len(ids)); perID < 1.7 || perID > 2.1 {
		t.Fatalf("ids 90 apart pack to %.2f B an id, want ≈ 1.9", perID)
	}

	const M = 1 << 14
	tree, err := BuildTree(Config{Namespace: M, Bits: 1 << 14, K: 3, Seed: 5, Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := buildQueryFilter(t, tree, uniformSet(rand.New(rand.NewSource(6)), M, 600))
	full := tree.scanPositives(q, math.MaxUint64)
	checkPacking(t, full, naivePositives(tree, q))
	if at := tree.scanPositives(q, full.Bytes()); at == nil || at.Bytes() != full.Bytes() {
		t.Fatalf("a table of %d B was not kept at a budget of %d B", full.Bytes(), full.Bytes())
	}
	if over := tree.scanPositives(q, full.Bytes()-1); over != nil {
		t.Fatalf("a table of %d B was kept at a budget of %d B", full.Bytes(), full.Bytes()-1)
	}
}

// FuzzPositives packs ascending ids read from the fuzz input — a byte c is a
// gap of 2^(c mod 64) + c/64, so that a few bytes reach every width — and
// holds the table to them: Select(i) is ids[i] at every i, AppendAll is
// Select at every index, and the layout is checkPacking's.
func FuzzPositives(f *testing.F) {
	f.Add([]byte{0, 1, 2, 63, 64, 200})
	f.Add(slices.Repeat([]byte{7}, 130))
	f.Add([]byte{5, 63, 0, 0, 62, 61, 1})
	f.Add([]byte{0, 0, 58, 0}) // width 59: the third offset straddles nine bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		ids := make([]uint64, 0, len(data))
		for _, c := range data[:min(len(data), 4*positivesBlock)] {
			gap := uint64(1)<<(c%64) + uint64(c/64)
			x := gap - 1 // the first id: its gap from −1
			if len(ids) > 0 {
				last := ids[len(ids)-1]
				if x = last + gap; x <= last {
					break // past the largest id there is
				}
			}
			ids = append(ids, x)
		}
		checkPacking(t, packed(ids), ids)
	})
}

// selected keeps the compiler from dropping a pick nobody reads.
var selected uint64

// BenchmarkPositives times the two reads of a warm version's table, on the
// benchmark's batch shape (M = 10⁶, 10 000 ids a key: ≈ 11 000 positives)
// and point shape (M = 10⁵, 1 000 ids a key): select, one pick at a random
// index, as a warm draw makes it — every iteration a fresh index, so that no
// predictor learns the reads; all, the whole table appended into a slice
// with room, as a served reconstruction reads it. Neither allocates
// (TestPositivesReadsAllocateNothing).
func BenchmarkPositives(b *testing.B) {
	for _, shape := range []struct {
		name         string
		M            uint64
		keys, perKey int
	}{
		{"batch", 1_000_000, 16, 10_000},
		{"point", 100_000, 50, 1_000},
	} {
		tree, queries := plannedShape(b, shape.M, shape.keys, shape.perKey)
		v := tree.VersionFor(queries[3])
		v.Pay(tree.LeafIDs())
		p := v.Positives()
		if p == nil {
			b.Fatalf("%s: the table was not kept", shape.name)
		}
		rng := rand.New(rand.NewSource(1))
		b.Run("select/"+shape.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				selected = p.Select(rng.Intn(p.Len()))
			}
		})
		b.Run("all/"+shape.name, func(b *testing.B) {
			out := make([]uint64, 0, p.Len())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = p.AppendAll(out[:0])
			}
			b.ReportMetric(float64(len(out)), "ids/op")
		})
		b.Logf("%s: %d positives in %d B, %.2f B an id, beside a %d B filter",
			shape.name, p.Len(), p.Bytes(), float64(p.Bytes())/float64(p.Len()), queries[3].SizeBytes())
	}
}

// TestPositivesReadsAllocateNothing: a pick, and a read of the whole table
// into a slice with room for it, allocate nothing.
func TestPositivesReadsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ids := plannedIDs(rng)
	p := packed(ids)
	out := make([]uint64, 0, len(ids))
	allocs := testing.AllocsPerRun(1000, func() {
		selected = p.Select(rng.Intn(p.Len()))
		out = p.AppendAll(out[:0])
	})
	if allocs != 0 {
		t.Fatalf("a pick and a whole-table read allocate %v times", allocs)
	}
}

// TestPositivesFollowTheLeaves: a table describes the leaves that existed
// when its scan began. Growth that creates a node drops it at the next look
// — and with it the payments made, so the version rents again before it
// scans again — and the table paid for afterwards holds the new leaf's
// positives; growth into leaves that exist already (the saturated tree)
// drops nothing, whatever it does to node filters.
func TestPositivesFollowTheLeaves(t *testing.T) {
	const M = 1 << 12
	// One hash function: a query of 300 ids in 8 192 bits answers for one id
	// in 28, a handful in every leaf of 256.
	cfg := Config{Namespace: M, Bits: 8192, K: 1, Seed: 3, Depth: 4}
	rng := rand.New(rand.NewSource(4))
	left := uniformSet(rng, M/2, 400) // leaves 0–7
	tree, err := BuildPruned(cfg, left)
	if err != nil {
		t.Fatal(err)
	}
	q := buildQueryFilter(t, tree, left[:300])
	v := tree.VersionFor(q)
	if v.Index() == nil || v.Index() != tree.VersionFor(q).Index() {
		t.Fatal("a cold version has one estimate index")
	}
	v.Pay(M)
	first := v.Positives()
	if first == nil {
		t.Fatal("no table after paying the price")
	}
	checkTable(t, first, naivePositives(tree, q))
	if v.index.Load() == nil {
		t.Fatal("the warm version dropped the estimate index its reconstructions read")
	}

	// Ids the existing leaves already cover, and new ones inside them: node
	// filters change, the set of leaves does not.
	nodes := tree.Nodes()
	if err := tree.InsertBatch(append(uniformSet(rng, M/2, 300), left...)); err != nil {
		t.Fatal(err)
	}
	if tree.Nodes() != nodes || tree.GrowthEpoch() == 0 {
		t.Fatalf("the saturated insert was meant to publish filters and no node (%d → %d nodes)", nodes, tree.Nodes())
	}
	if v.Positives() != first || tree.PositivesStats().Dropped != 0 {
		t.Fatal("growth that created no node dropped the table")
	}

	// One id in the right half: a new leaf, whose range holds false positives
	// of q.
	if err := tree.Insert(M/2 + 5); err != nil {
		t.Fatal(err)
	}
	if tree.Nodes() == nodes {
		t.Fatal("the insert was meant to create a leaf")
	}
	if v.Positives() != nil {
		t.Fatal("a table older than a leaf was served")
	}
	if st := tree.PositivesStats(); st.Dropped != 1 || st.Scans != 1 {
		t.Fatalf("after growth under a warm version: %+v", st)
	}
	if price := tree.LeafIDs(); price != scanPrice(tree) || price != 9*M/16 {
		t.Fatalf("nine leaves of %d ids priced at %d", M/16, price)
	}
	v.Pay(tree.LeafIDs() - 1)
	if v.Positives() != nil || tree.PositivesStats().Scans != 1 {
		t.Fatal("the version scanned again without paying again")
	}
	v.Pay(1)
	second := v.Positives()
	if second == nil || second == first || tree.PositivesStats().Scans != 2 {
		t.Fatalf("the version did not pay for a second table (%+v)", tree.PositivesStats())
	}
	want := naivePositives(tree, q)
	checkTable(t, second, want)
	if second.Len() <= first.Len() || want[len(want)-1] < M/2 {
		t.Fatalf("the new leaf added no positive (%d → %d): the test needs one", first.Len(), second.Len())
	}

	// Exact does not wait for the rent: a tenth leaf drops the second table,
	// and the call that finds it gone scans for the third, new leaf included.
	if err := tree.Insert(M/2 + M/16 + 5); err != nil {
		t.Fatal(err)
	}
	third := v.Exact()
	if st := tree.PositivesStats(); third == second || third != v.Positives() || st.Dropped != 2 || st.Scans != 3 {
		t.Fatalf("Exact after growth under a warm version: %+v", st)
	}
	want = naivePositives(tree, q)
	checkTable(t, third, want)
	if third.Len() <= second.Len() || want[len(want)-1] < M/2+M/16 {
		t.Fatalf("the tenth leaf added no positive (%d → %d): the test needs one", second.Len(), third.Len())
	}
}

// TestPositivesOneScanUnderContention: eight goroutines draw from one cold
// version and pay as they go; they cross the price together, exactly one of
// them scans, and every id any of them returns — by descent before, from
// the table after — is a positive of the version. Run under -race.
func TestPositivesOneScanUnderContention(t *testing.T) {
	const M = 1 << 14
	tree, err := BuildTree(Config{Namespace: M, Bits: 1 << 14, K: 3, Seed: 5, Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := buildQueryFilter(t, tree, uniformSet(rand.New(rand.NewSource(6)), M, 600))
	want := naivePositives(tree, q)
	v := tree.VersionFor(q)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var est Ops
			var scratch []uint64
			for est.Picked < 200 {
				var x uint64
				var err error
				if x, scratch, err = tree.SampleVersion(q, rng, nil, scratch, v, &est); err != nil {
					t.Error(err)
					return
				}
				if _, found := slices.BinarySearch(want, x); !found {
					t.Errorf("goroutine %d drew %d, not a positive", g, x)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := tree.PositivesStats(); st.Scans != 1 || st.Declined != 0 || st.Dropped != 0 {
		t.Fatalf("eight goroutines crossing the price together: %+v", st)
	}
	checkTable(t, v.Positives(), want)
}

// TestExactScansOnceUnderContention: eight goroutines ask one cold version
// for its exact table at once. One of them scans, the others wait for that
// scan and get its table: positives_scans is 1. Run under -race.
func TestExactScansOnceUnderContention(t *testing.T) {
	const M = 1 << 14
	tree, err := BuildTree(Config{Namespace: M, Bits: 1 << 14, K: 3, Seed: 5, Depth: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := buildQueryFilter(t, tree, uniformSet(rand.New(rand.NewSource(6)), M, 600))
	v := tree.VersionFor(q)
	tables := make([]*Positives, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			tables[g] = v.Exact()
		}()
	}
	close(start)
	wg.Wait()
	if st := tree.PositivesStats(); st.Scans != 1 || st.Declined != 0 || st.Dropped != 0 {
		t.Fatalf("eight goroutines asking a cold version for its table together: %+v", st)
	}
	for g, p := range tables {
		if p == nil || p != tables[0] {
			t.Fatalf("goroutine %d was handed table %p, goroutine 0 %p", g, p, tables[0])
		}
	}
	checkTable(t, tables[0], naivePositives(tree, q))
}

// TestExactOnAnEmptyTree: a pruned tree with no leaf yet has nothing to scan;
// Exact is the empty table, a draw from it is ErrNoSample, and a filter of
// another profile is told so rather than scanned.
func TestExactOnAnEmptyTree(t *testing.T) {
	cfg := testConfig(t, 10_000, 100, 0.9, 5)
	tree, err := BuildPruned(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := buildQueryFilter(t, tree, []uint64{1, 2, 3})
	v := tree.VersionFor(q)
	if p := v.Exact(); p == nil || p.Len() != 0 {
		t.Fatalf("Exact on an empty tree: %v", p)
	}
	rng := rand.New(rand.NewSource(1))
	var tally Ops
	if _, _, err := tree.SampleVersion(q, rng, nil, nil, v, &tally); err != ErrNoSample || tally.Picked != 1 {
		t.Fatalf("a draw from the empty table: %v, %d picks", err, tally.Picked)
	}
	cfg.Bits++
	other, err := BuildPruned(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	foreign := other.NewQueryFilter()
	if _, _, err := tree.SampleVersion(foreign, rng, nil, nil, tree.VersionFor(foreign), nil); err == nil || err == ErrNoSample {
		t.Fatalf("a descent on a filter of another profile: %v", err)
	}
}
