package core

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/hashfam"
)

// idsDigest folds a draw sequence into one comparable value: the count and
// an FNV-1a hash of the ids in the order they were returned.
func idsDigest(ids []uint64) [2]uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range ids {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	return [2]uint64{uint64(len(ids)), h.Sum64()}
}

// TestGoldenDrawsMatchParentCommit pins, for fixed rng seeds, the exact ids
// SampleScratch, SampleN and Reconstruct return and the operations they
// count. The values were recorded from the commit before the one-pass
// estimate, the per-batch memo and the early-exit leaf kernel landed: those
// are cost changes only, so every id, its order and every count must
// survive them.
func TestGoldenDrawsMatchParentCommit(t *testing.T) {
	cases := []struct {
		name   string
		kind   hashfam.Kind
		pruned bool
		acc    float64   // plans the filter for 300 ids at this accuracy
		qsize  int       // ids actually stored in the query filter
		draws  [2]uint64 // 64 SampleScratch draws, rng seed 11 (ErrNoSample skipped)
		multi  [2]uint64 // SampleN(48, without replacement), rng seed 12
		multiR [2]uint64 // SampleN(48, with replacement), rng seed 13
		recon  [2]uint64 // Reconstruct(PruneByEstimate)
		reconA [2]uint64 // Reconstruct(PruneByAndBits)
		ops    Ops       // summed over all five
	}{
		// Dense rows descend cleanly; the sparse rows (4 ids behind an
		// undersized filter) live on false-positive paths, so they pin
		// backtracking and lost draws too.
		{name: "fast/full/dense", kind: hashfam.KindFast, acc: 0.9, qsize: 300,
			draws: [2]uint64{64, 0x42c5610ec42a0804}, multi: [2]uint64{48, 0xf4cc0d10a4ba7d38}, multiR: [2]uint64{48, 0x23f94941f9356c7b},
			recon: [2]uint64{294, 0x9686c6bedb261f2}, reconA: [2]uint64{332, 0xea7a04574d2836e},
			ops: Ops{1216, 61696, 849, 241, 0}},
		{name: "fast/pruned/dense", kind: hashfam.KindFast, pruned: true, acc: 0.9, qsize: 300,
			draws: [2]uint64{64, 0x88ae71858b9dea05}, multi: [2]uint64{48, 0xac0b2161b2978e0a}, multiR: [2]uint64{48, 0x2aaa756000eaa6ce},
			recon: [2]uint64{328, 0x13ee4699fd0e681b}, reconA: [2]uint64{332, 0xea7a04574d2836e},
			ops: Ops{1232, 66048, 874, 258, 0}},
		{name: "murmur3/full/dense", kind: hashfam.KindMurmur3, acc: 0.9, qsize: 300,
			draws: [2]uint64{64, 0xa7adae57a9b31569}, multi: [2]uint64{48, 0x2df54aeb57a3c2e8}, multiR: [2]uint64{48, 0xa091270ae61a7723},
			recon: [2]uint64{290, 0x2d86bea53011328f}, reconA: [2]uint64{335, 0x68670ce80040bb0},
			ops: Ops{1212, 61696, 847, 241, 0}},
		{name: "murmur3/pruned/dense", kind: hashfam.KindMurmur3, pruned: true, acc: 0.9, qsize: 300,
			draws: [2]uint64{64, 0xdb20b51ca4904454}, multi: [2]uint64{48, 0xac4f79f775027fe2}, multiR: [2]uint64{48, 0xa72447e05d512d9c},
			recon: [2]uint64{329, 0xe091ff02c3a95600}, reconA: [2]uint64{335, 0x68670ce80040bb0},
			ops: Ops{1236, 63744, 867, 249, 0}},
		{name: "fast/full/sparse", kind: hashfam.KindFast, acc: 0.2, qsize: 4,
			draws: [2]uint64{64, 0xcfb74f2bc2c62c7f}, multi: [2]uint64{2, 0xb887a09f9694a2e6}, multiR: [2]uint64{48, 0xa8a76a8ec213bb61},
			recon: [2]uint64{2, 0xb887a09f9694a2e6}, reconA: [2]uint64{4, 0xe829f0b5fb50fe4a},
			ops: Ops{1750, 107520, 1295, 420, 347}},
		{name: "fast/pruned/sparse", kind: hashfam.KindFast, pruned: true, acc: 0.2, qsize: 4,
			draws: [2]uint64{64, 0xec1640a58309e295}, multi: [2]uint64{2, 0xe54d074f7522d537}, multiR: [2]uint64{48, 0xb6211031d6c18f5d},
			recon: [2]uint64{2, 0xe54d074f7522d537}, reconA: [2]uint64{4, 0xe829f0b5fb50fe4a},
			ops: Ops{1486, 63232, 990, 247, 212}},
		{name: "murmur3/full/sparse", kind: hashfam.KindMurmur3, acc: 0.2, qsize: 4,
			draws: [2]uint64{64, 0x7b13498edf8adf25}, multi: [2]uint64{1, 0x8dff1f0764a0e9}, multiR: [2]uint64{48, 0x2beafc783ce3b025},
			recon: [2]uint64{1, 0x8dff1f0764a0e9}, reconA: [2]uint64{4, 0xe829f0b5fb50fe4a},
			ops: Ops{3558, 249088, 2752, 973, 1115}},
		{name: "murmur3/pruned/sparse", kind: hashfam.KindMurmur3, pruned: true, acc: 0.2, qsize: 4,
			draws: [2]uint64{0, 0xcbf29ce484222325}, multi: [2]uint64{0, 0xcbf29ce484222325}, multiR: [2]uint64{0, 0xcbf29ce484222325},
			recon: [2]uint64{0, 0xcbf29ce484222325}, reconA: [2]uint64{4, 0xe829f0b5fb50fe4a},
			ops: Ops{2358, 141568, 1732, 553, 776}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const M = 1 << 14
			cfg := testConfig(t, M, 300, c.acc, 6)
			cfg.HashKind = c.kind
			occupied := uniformSet(rand.New(rand.NewSource(3)), M, 2000)
			var tree *Tree
			var err error
			if c.pruned {
				tree, err = BuildPruned(cfg, occupied)
			} else {
				tree, err = BuildTree(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			q := buildQueryFilter(t, tree, occupied[:c.qsize])

			var ops Ops
			rng := rand.New(rand.NewSource(11))
			var draws, scratch []uint64
			for i := 0; i < 64; i++ {
				var x uint64
				x, scratch, err = tree.SampleScratch(q, rng, &ops, scratch)
				if err == ErrNoSample {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				draws = append(draws, x)
			}
			multi, err := tree.SampleN(q, 48, false, rand.New(rand.NewSource(12)), &ops)
			if err != nil {
				t.Fatal(err)
			}
			multiR, err := tree.SampleN(q, 48, true, rand.New(rand.NewSource(13)), &ops)
			if err != nil {
				t.Fatal(err)
			}
			recon, err := tree.Reconstruct(q, PruneByEstimate, &ops)
			if err != nil {
				t.Fatal(err)
			}
			reconA, err := tree.Reconstruct(q, PruneByAndBits, &ops)
			if err != nil {
				t.Fatal(err)
			}
			got := [][2]uint64{idsDigest(draws), idsDigest(multi), idsDigest(multiR), idsDigest(recon), idsDigest(reconA)}
			want := [][2]uint64{c.draws, c.multi, c.multiR, c.recon, c.reconA}
			for i, name := range []string{"draws", "multi", "multiR", "recon", "reconA"} {
				if got[i] != want[i] {
					t.Errorf("%s: {%d, %#x}, recorded {%d, %#x}", name, got[i][0], got[i][1], want[i][0], want[i][1])
				}
			}
			if ops != c.ops {
				t.Errorf("ops: {%d, %d, %d, %d, %d}, recorded %v", ops.Intersections, ops.Memberships, ops.NodesVisited, ops.LeavesScanned, ops.Backtracks, c.ops)
			}
		})
	}
}
