package setdb

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/hashfam"
	"repro/internal/membership"
)

// drawUnmemoised is the reference a batch is held to: n SampleScratch
// calls on rng, lost draws skipped.
func drawUnmemoised(t *testing.T, tree *core.Tree, f *bloom.Filter, n int, rng *rand.Rand, ops *core.Ops) (ids []uint64, lost int) {
	t.Helper()
	var scratch []uint64
	for i := 0; i < n; i++ {
		var x uint64
		var err error
		x, scratch, err = tree.SampleScratch(f, rng, ops, scratch)
		if err == core.ErrNoSample {
			lost++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, x)
	}
	return ids, lost
}

// TestBatchDrawsMatchSampleScratch is the id-for-id guarantee behind the
// per-batch estimate memo: a worker with a fixed rng seed returns exactly
// what the same number of SampleScratch calls on an identically seeded rng
// return — every backend's query filter, the default and a block-scanned
// hash family — while computing fewer estimates, reading the rest back
// from the index, and the same everything else. The worker and both rngs live across three batches with the pruned
// tree grown in between, first under the same filter version and then
// under a new one: an estimate remembered past its batch would send the
// worker down different branches than the reference.
func TestBatchDrawsMatchSampleScratch(t *testing.T) {
	for _, backend := range []membership.Kind{membership.KindBloom, membership.KindCounting} {
		for _, kind := range []hashfam.Kind{hashfam.KindFast, hashfam.KindMurmur3} {
			t.Run(fmt.Sprintf("%s/%s", backend, kind), func(t *testing.T) {
				opts, err := PlanOptions(0.9, 400, 50_000, 3)
				if err != nil {
					t.Fatal(err)
				}
				opts.Pruned, opts.HashKind, opts.Seed = true, kind, 5
				dynamic := backend != membership.KindBloom
				if dynamic {
					opts.Backend = backend
				}
				db, err := Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				data := rand.New(rand.NewSource(8))
				add := func(key string, n int) {
					t.Helper()
					ids := make([]uint64, n)
					for i := range ids {
						ids[i] = uint64(data.Intn(50_000))
					}
					if err := db.AddMany(Write{Key: key, IDs: ids, Dynamic: dynamic && key == "a"}); err != nil {
						t.Fatal(err)
					}
				}
				view := func() *bloom.Filter { return db.Filter("a") }

				worker := &sampleWorker{rng: rand.New(rand.NewSource(21))}
				ref := rand.New(rand.NewSource(21))
				batch := func(step string, f *bloom.Filter) {
					t.Helper()
					var ops, refOps core.Ops
					got, lost, err := worker.draw(db.tree, f, 40, &ops, nil)
					if err != nil {
						t.Fatal(err)
					}
					want, refLost := drawUnmemoised(t, db.tree, f, 40, ref, &refOps)
					if !slices.Equal(got, want) || lost != refLost {
						t.Fatalf("%s: batch drew %v (lost %d), SampleScratch drew %v (lost %d)", step, got, lost, want, refLost)
					}
					if ops.Intersections >= refOps.Intersections {
						t.Fatalf("%s: batch computed %d estimates, independent draws %d", step, ops.Intersections, refOps.Intersections)
					}
					if ops.Intersections+ops.Remembered != refOps.Intersections {
						t.Fatalf("%s: batch computed %d estimates and read %d back, independent draws computed %d",
							step, ops.Intersections, ops.Remembered, refOps.Intersections)
					}
					ops.Intersections, ops.Remembered, refOps.Intersections = 0, 0, 0
					if ops != refOps {
						t.Fatalf("%s: batch counted %v, independent draws %v", step, &ops, &refOps)
					}
				}

				add("a", 300)
				add("other", 300)
				f := view()
				batch("first batch", f)
				add("other", 2_000) // grows the tree under the same version of "a"
				if view() != f {
					t.Fatal("a write to another key republished this one")
				}
				batch("after growth", f)
				add("a", 100)
				if view() == f {
					t.Fatal("a write did not publish a new filter version")
				}
				batch("new version", view())
			})
		}
	}
}

// TestBatchPaysForEachEstimateOnce gates the paper's cost unit on the shape
// the benchmark's batch workload serves (M = 10⁶, 16 keys of 10⁴ ids, the
// pruned tree of depth 7 with its 127 internal nodes): a served frame of 64
// draws computes at most one estimate pair per internal node instead of 14
// a draw, and allocates its result alone — not the memo's entries again for
// every request. A draw samples its leaf for ≈ 90 probes where the scan
// fired 7 812, with the descent above it unchanged; a memoised batch enters
// exactly the leaves and fires exactly the probes independent draws do; and
// a reconstruction counts what it counted before the memo, the leaf kernel
// and the sampled leaf existed.
func TestBatchPaysForEachEstimateOnce(t *testing.T) {
	opts, err := PlanOptions(0.9, 10_000, 1_000_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts.Pruned = true
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	data := rand.New(rand.NewSource(1))
	for k := 0; k < 16; k++ {
		ids := make([]uint64, 10_000)
		for i := range ids {
			ids[i] = uint64(data.Intn(1_000_000))
		}
		if err := db.Add(fmt.Sprintf("k%d", k), ids...); err != nil {
			t.Fatal(err)
		}
	}
	if d := db.tree.Depth(); d != 7 {
		t.Fatalf("tree depth %d, the gate below is written for 7", d)
	}

	f := db.Filter("k3")
	var served core.Ops
	ids, err := db.SampleManyFrom(f, 64, 0, &served)
	if err != nil || len(ids) != 64 {
		t.Fatalf("served frame: %d ids, err %v", len(ids), err)
	}
	if served.Intersections > 254 {
		t.Fatalf("a 64-draw frame computed %d estimates; the tree has 2×127 to compute", served.Intersections)
	}
	if served.NodesVisited != 8*64 || served.LeavesScanned != 64 || served.Backtracks != 0 {
		t.Fatalf("a 64-draw frame counted %v", &served)
	}
	// The worker, its rng and the version's index are pooled or kept, so a
	// cold frame allocates its result alone: 1, what a one-worker frame
	// measured at 774a1f3 (an entry allocated per node would show as 127).
	// The race detector's pool drops some of what it is given, and a
	// collection empties it, so neither is let in.
	if !raceEnabled {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := db.SampleMany("k3", 64); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Fatalf("a 64-draw frame allocates %.1f times, want 1", allocs)
		}
	}
	if db.tree.VersionFor(f).Positives() != nil {
		t.Fatal("the frames above warmed the version: the allocation count was not a cold one")
	}

	var memo, indep core.Ops
	worker := &sampleWorker{rng: rand.New(rand.NewSource(2))}
	if _, _, err := worker.draw(db.tree, f, 64, &memo, nil); err != nil {
		t.Fatal(err)
	}
	drawUnmemoised(t, db.tree, f, 64, rand.New(rand.NewSource(2)), &indep)
	if indep.Intersections != 14*64 {
		t.Fatalf("independent draws computed %d estimates, want 14 each", indep.Intersections)
	}
	if memo.Intersections > 254 {
		t.Fatalf("memoised batch computed %d estimates", memo.Intersections)
	}
	if memo.Memberships != indep.Memberships || memo.LeavesScanned != indep.LeavesScanned ||
		memo.Backtracks != indep.Backtracks || memo.NodesVisited != indep.NodesVisited {
		t.Fatalf("memoised batch counted %v, independent draws %v", &memo, &indep)
	}
	// The expected-cost gate of the sampled leaf: 7 812-id leaves holding
	// ≈ 87 positives, so ≈ 90 probes a draw where the scan fired 7 812.
	if indep.Memberships > 400*64 || indep.NodesVisited != 8*64 || indep.LeavesScanned != 64 || indep.Backtracks != 0 {
		t.Fatalf("64 independent draws counted %v, want 14 estimates, 8 nodes, 1 leaf, no backtrack and at most 400 probes each", &indep)
	}

	var recon core.Ops
	set, err := db.tree.Reconstruct(f, core.PruneByEstimate, &recon)
	if err != nil {
		t.Fatal(err)
	}
	// Recorded at the parent commit for this data.
	want := core.Ops{Intersections: 254, Memberships: 1_000_000, NodesVisited: 255, LeavesScanned: 128}
	if recon != want || len(set) != 11_023 {
		t.Fatalf("reconstruction returned %d ids and counted %v, recorded %v", len(set), &recon, &want)
	}
}
