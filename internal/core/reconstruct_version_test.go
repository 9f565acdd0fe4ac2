package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bloom"
	"repro/internal/hashfam"
)

// TestReconstructFromVersionIsTheWalk is the identity gate of the
// version-served reconstruction, exhaustively on small domains in
// TestPositivesAreTheTruth's manner: for every namespace 2..512, every depth
// 0..5 it admits, a full tree and a pruned one of random occupancy, the
// fused-scan and block-scan hash families and both prune rules, the ids
// ReconstructVersion returns are Reconstruct's — on a cold version, on the
// call whose payment crosses the price and runs the scan, on a warm one,
// after growth has dropped the table, and when it is warm again — with an
// estimate index that covers none, the top, or all of the tree's levels (set
// by hand: at these filter sizes the byte budget would always say none). The
// queries are filled to where false positives outnumber members, so the
// leaves the threshold drops hold positives the table has and the walk must
// not return. Beside the ids: a version with a table tests no id, a call
// after the first computes no estimate (it reads back exactly those the first
// computed), and a version scans once per table.
//
// A warm version reads its surviving leaves as runs, leaves that touch as one
// range of the table, so the grid must hold both kinds of tree a thousand
// times each: one whose every leaf survives (several leaves, one run), and
// one with a hole between two surviving leaves in which a leaf the walk
// dropped holds positives the table has — runs that must not merge.
func TestReconstructFromVersionIsTheWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var cold, crossed, refused, regrown, oneRun, gapped int
	var coverage [3]int // of PruneByEstimate walks: no level, the top, every level
	for _, kind := range []hashfam.Kind{hashfam.KindFast, hashfam.KindMurmur3} {
		for M := uint64(2); M <= 512; M++ {
			for depth := 0; depth <= 5 && depth <= bits.Len64(M-1); depth++ {
				for _, pruned := range []bool{false, true} {
					cfg := Config{Namespace: M, Bits: 32 << rng.Intn(5), K: 2, HashKind: kind, Seed: M, Depth: depth}
					occupied := uniformSet(rng, M, 1+rng.Intn(int(M)))
					set := uniformSet(rng, M, rng.Intn(int(M)/4+1))
					for _, rule := range []PruneRule{PruneByEstimate, PruneByAndBits} {
						var tree *Tree
						var err error
						if pruned {
							tree, err = BuildPruned(cfg, occupied)
						} else {
							tree, err = BuildTree(cfg)
						}
						if err != nil {
							t.Fatal(err)
						}
						q := buildQueryFilter(t, tree, set)
						v := tree.VersionFor(q)
						levels := rng.Intn(depth + 1)
						v.index.Store(&EstimateIndex{tree: tree, slots: make([]indexSlot, 1<<levels-1)})
						name := fmt.Sprintf("%s M=%d depth=%d pruned=%v m=%d rule=%d index=%d", kind, M, depth, pruned, cfg.Bits, rule, levels)

						// serve holds one version-served call to the walk on
						// the tree as it is now, and returns its tally and the
						// ids the walk scanned.
						serve := func(when string) (Estimates, uint64) {
							t.Helper()
							var ops Ops
							want, err := tree.Reconstruct(q, rule, &ops)
							if err != nil {
								t.Fatal(err)
							}
							got, tally, err := tree.ReconstructVersion(q, rule, nil, v)
							if err != nil {
								t.Fatal(err)
							}
							if !slices.Equal(got, want) {
								t.Fatalf("%s, %s: the version answers %v, the walk %v", name, when, got, want)
							}
							if tally.Tested != 0 && tally.Tested != ops.Memberships {
								t.Fatalf("%s, %s: %d ids tested, the walk scans %d", name, when, tally.Tested, ops.Memberships)
							}
							return tally, ops.Memberships
						}
						table := func() bool { p := v.pos.Load(); return p != nil && p != declined }

						switch runs, leaves, between := survivingRuns(tree, q, rule); {
						case runs == 1 && leaves > 1 && leaves == countLeaves(tree):
							oneRun++
						case runs > 1 && between > 0:
							gapped++
						}
						price := tree.LeafIDs()
						first, span := serve("first")
						if first.Remembered != 0 || rule == PruneByAndBits && first.Computed != 0 {
							t.Fatalf("%s: the first walk computed %d estimates and read back %d", name, first.Computed, first.Remembered)
						}
						switch {
						case span >= price: // every leaf survived: the first call is the one that pays the price
						case span == 0:
							v.Pay(price)
						default:
							if first.Tested != span || v.pos.Load() != nil || tree.PositivesStats().Scans != 0 {
								t.Fatalf("%s: %d of %d ids paid, %d tested, %d scans", name, span, price, first.Tested, tree.PositivesStats().Scans)
							}
							cold++
							if price > 2*span {
								v.Pay(price - 2*span)
							}
							if v.pos.Load() != nil {
								t.Fatalf("%s: scanned %d ids short of the price", name, span)
							}
							crossing, _ := serve("crossing the price")
							if table() != (crossing.Tested == 0) {
								t.Fatalf("%s: the call that scanned tested %d ids more, table kept: %v", name, crossing.Tested, table())
							}
							crossed++
						}
						if st := tree.PositivesStats(); st.Scans != 1 || v.pos.Load() == nil {
							t.Fatalf("%s: %d scans after the price was paid", name, st.Scans)
						}
						if !table() {
							refused++
						}
						for _, when := range []string{"warm", "warm again"} {
							tally, span := serve(when)
							if table() && tally.Tested != 0 || !table() && tally.Tested != span {
								t.Fatalf("%s, %s: %d ids tested, table kept: %v", name, when, tally.Tested, table())
							}
							if tally.Computed != 0 || tally.Remembered != first.Computed {
								t.Fatalf("%s, %s: %d estimates computed and %d read back, the first walk computed %d", name, when, tally.Computed, tally.Remembered, first.Computed)
							}
						}
						if rule == PruneByEstimate && depth > 0 {
							coverage[min(levels, 1)+levels/depth]++
						}

						// Growth: an id no leaf covers yet.
						covered := make([]bool, M)
						eachLeaf(tree, func(n *node) {
							for x := n.lo; x < n.hi; x++ {
								covered[x] = true
							}
						})
						fresh := slices.Index(covered, false)
						if fresh < 0 {
							continue
						}
						had, nodes := table(), tree.Nodes()
						if err := tree.Insert(uint64(fresh)); err != nil {
							t.Fatal(err)
						}
						if tree.Nodes() == nodes || tree.LeafIDs() != scanPrice(tree) {
							t.Fatalf("%s: %d nodes and a price of %d after a new leaf", name, tree.Nodes(), tree.LeafIDs())
						}
						serve("after growth")
						if st := tree.PositivesStats(); had && st.Dropped != 1 {
							t.Fatalf("%s: a table older than a leaf was read (%+v)", name, st)
						}
						v.Pay(tree.LeafIDs())
						if tally, _ := serve("warm after growth"); table() && tally.Tested != 0 {
							t.Fatalf("%s: %d ids tested beside the second table", name, tally.Tested)
						}
						if st := tree.PositivesStats(); had && st.Scans != 2 {
							t.Fatalf("%s: %d scans for two tables", name, st.Scans)
						}
						regrown++
					}
				}
			}
		}
	}
	for _, n := range append(coverage[:], cold, crossed, refused, regrown, oneRun, gapped) {
		if n < 1000 {
			t.Fatalf("cases met: %d cold, %d crossing, %d declined, %d regrown, %d read as one run, %d as runs around a dropped leaf's positives, index coverage none/top/all %v: every one was meant to be met a thousand times",
				cold, crossed, refused, regrown, oneRun, gapped, coverage)
		}
	}
}

// survivingRuns walks the tree for q as a caller with no version does and
// returns the leaves that survive, the runs they form — maximal stretches of
// leaves that touch — and the positives of q that leaves the walk dropped
// hold between two runs: what a read that merged across the hole would add.
func survivingRuns(tree *Tree, q *bloom.Filter, rule PruneRule) (runs, leaves, between int) {
	surviving := tree.reconstructNode(tree.rootNode(), 1, rule, &descent{q: q}, nil)
	dropped := map[*node]bool{}
	eachLeaf(tree, func(n *node) { dropped[n] = !slices.Contains(surviving, n) })
	for i, n := range surviving {
		if i > 0 && surviving[i-1].hi == n.lo {
			continue
		}
		runs++
		if i == 0 {
			continue
		}
		for leaf := range dropped {
			if dropped[leaf] && leaf.lo >= surviving[i-1].hi && leaf.hi <= n.lo {
				between += len(q.AppendPositives(leaf.lo, leaf.hi, nil))
			}
		}
	}
	return runs, len(surviving), between
}

func countLeaves(tree *Tree) (leaves int) {
	eachLeaf(tree, func(*node) { leaves++ })
	return leaves
}

// TestPositivesRangeRead holds the range read to the ids filtered, for every
// [lo, hi) whose ends are an id at either end of a block, or one off it, or
// one of the ends of the id space (checkBlockEnds) — on tables whose gaps
// run from one id to 2³³ and to the largest id there is, so that their
// blocks' widths do too (ids far wider apart than the small namespaces of
// TestPositivesAreTheTruth, which reads every range there is, can put them).
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
		checkBlockEnds(t, p, ids)
		below := count // ids below the largest there is, which ends every longer list
		if count > 1 {
			below--
		}
		if got := p.AppendRange(0, math.MaxUint64, []uint64{9}); len(got) != 1+below || got[0] != 9 {
			t.Fatalf("%d ids: a read into a slice that holds one id returned %d", count, len(got))
		}
	}
}

// TestReconstructVersionUnderGrowth: readers reconstruct one pinned version
// by both rules while writers grow the pruned tree leaf by leaf under them,
// dropping the version's table again and again. Whatever a reader meets —
// the table, a table a leaf has just outdated, a scan — its answer holds
// every member of the version, whose leaves all existed before it did, and
// nothing the version does not answer for. Run under -race.
func TestReconstructVersionUnderGrowth(t *testing.T) {
	const M = 1 << 14
	cfg := Config{Namespace: M, Bits: 1 << 13, K: 2, Seed: 31, Depth: 6}
	rng := rand.New(rand.NewSource(32))
	members := uniformSet(rng, M/4, 150) // leaves 0–15 of 64
	tree, err := BuildPruned(cfg, members)
	if err != nil {
		t.Fatal(err)
	}
	q := buildQueryFilter(t, tree, members)
	slices.Sort(members)
	v := tree.VersionFor(q)

	var grown atomic.Bool
	var readers, writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			rule := PruneRule(g % 2)
			// Until the writers are done, and twenty rounds at least.
			for i := 0; !grown.Load() || i < 20; i++ {
				got, _, err := tree.ReconstructVersion(q, rule, nil, v)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.IsSorted(got) {
					t.Errorf("reader %d: ids out of order", g)
					return
				}
				for _, x := range got {
					if !q.Contains(x) {
						t.Errorf("reader %d: %d is not a positive of the version", g, x)
						return
					}
				}
				// PruneByAndBits never drops a member; the threshold may
				// (§5.6), but not one the nil-version walk keeps — and with
				// filters this sparse it keeps them all.
				for _, x := range members {
					if _, found := slices.BinarySearch(got, x); !found {
						t.Errorf("reader %d: member %d is missing from an answer of %d ids", g, x, len(got))
						return
					}
				}
			}
		}()
	}
	// Writers: one new leaf at a time in the three quarters of the namespace
	// the version's members do not touch, two stripes at once.
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for leaf := 16 + w; leaf < 64; leaf += 2 {
				if err := tree.Insert(uint64(leaf)*(M/64) + 3); err != nil {
					t.Error(err)
					return
				}
				// What a request does: look, which drops a table the new leaf
				// outdated whether or not a reader got to it first, and pay,
				// which scans a table for the next leaf to drop.
				if v.Positives() == nil {
					v.Pay(tree.LeafIDs())
				}
			}
		}()
	}
	writers.Wait()
	grown.Store(true)
	readers.Wait()
	if st := tree.PositivesStats(); st.Dropped == 0 || st.Scans < 2 {
		t.Fatalf("growth under a warm version dropped %d tables of %d scanned: the test needs both", st.Dropped, st.Scans)
	}
	want, err := tree.Reconstruct(q, PruneByEstimate, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _ := tree.ReconstructVersion(q, PruneByEstimate, nil, v); !slices.Equal(got, want) {
		t.Fatalf("at rest the version answers %d ids, the walk %d", len(got), len(want))
	}
}
