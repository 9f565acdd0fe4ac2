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
// count, in two groups by the commit they were recorded from.
//
// multi, multiR, recon, reconA and rops (the counts of those four calls)
// were recorded from PR 11 (761e0fa), the commit before the one-pass
// estimate, the per-batch memo and the early-exit leaf kernel landed, and
// held through PR 12 and the sampled leaf of PR 14: those are cost changes
// only, and SampleN and Reconstruct need every positive of a leaf, so every
// id, its order and every count must survive them.
//
// draws and dops (the counts of the 64 SampleScratch draws) were
// re-recorded at PR 14, whose sampled leaf consumes the rng differently at
// the leaf and fires fewer probes: the ids change, their distribution does
// not (leaf_test.go holds it to the scanned leaf PR 11 had). On the dense
// rows, where every draw descends cleanly, dops differs from PR 11's
// {768, 16384, 448, 64, 0} in Memberships alone; on the sparse rows the
// later draws of the shared rng take other false-positive paths, so the
// other counts moved with the ids (PR 11, in row order: {1374, 77824, 991,
// 304, 310}, {1252, 51456, 827, 201, 203}, {3172, 221184, 2450, 864, 1076},
// {2176, 131072, 1600, 512, 768}).
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
		dops   Ops       // counted by the 64 draws
		rops   Ops       // summed over the other four
	}{
		// Dense rows descend cleanly; the sparse rows (4 ids behind an
		// undersized filter) live on false-positive paths, so they pin
		// backtracking and lost draws too.
		{name: "fast/full/dense", kind: hashfam.KindFast, acc: 0.9, qsize: 300,
			draws: [2]uint64{64, 0x448381c006a03586}, multi: [2]uint64{48, 0xf4cc0d10a4ba7d38}, multiR: [2]uint64{48, 0x23f94941f9356c7b},
			recon: [2]uint64{294, 0x9686c6bedb261f2}, reconA: [2]uint64{332, 0xea7a04574d2836e},
			dops: Ops{768, 11388, 448, 64, 0, 0, 0}, rops: Ops{448, 45312, 401, 177, 0, 0, 0}},
		{name: "fast/pruned/dense", kind: hashfam.KindFast, pruned: true, acc: 0.9, qsize: 300,
			draws: [2]uint64{64, 0x413c7b4df3fbc295}, multi: [2]uint64{48, 0xac0b2161b2978e0a}, multiR: [2]uint64{48, 0x2aaa756000eaa6ce},
			recon: [2]uint64{328, 0x13ee4699fd0e681b}, reconA: [2]uint64{332, 0xea7a04574d2836e},
			dops: Ops{768, 8075, 448, 64, 0, 0, 0}, rops: Ops{464, 49664, 426, 194, 0, 0, 0}},
		{name: "murmur3/full/dense", kind: hashfam.KindMurmur3, acc: 0.9, qsize: 300,
			draws: [2]uint64{64, 0xad42f75e43331bcc}, multi: [2]uint64{48, 0x2df54aeb57a3c2e8}, multiR: [2]uint64{48, 0xa091270ae61a7723},
			recon: [2]uint64{290, 0x2d86bea53011328f}, reconA: [2]uint64{335, 0x68670ce80040bb0},
			dops: Ops{768, 10842, 448, 64, 0, 0, 0}, rops: Ops{444, 45312, 399, 177, 0, 0, 0}},
		{name: "murmur3/pruned/dense", kind: hashfam.KindMurmur3, pruned: true, acc: 0.9, qsize: 300,
			draws: [2]uint64{64, 0x23fc909b233e6e64}, multi: [2]uint64{48, 0xac4f79f775027fe2}, multiR: [2]uint64{48, 0xa72447e05d512d9c},
			recon: [2]uint64{329, 0xe091ff02c3a95600}, reconA: [2]uint64{335, 0x68670ce80040bb0},
			dops: Ops{768, 9135, 448, 64, 0, 0, 0}, rops: Ops{468, 47360, 419, 185, 0, 0, 0}},
		{name: "fast/full/sparse", kind: hashfam.KindFast, acc: 0.2, qsize: 4,
			draws: [2]uint64{64, 0xb37a7266dc89e7f7}, multi: [2]uint64{2, 0xb887a09f9694a2e6}, multiR: [2]uint64{48, 0xa8a76a8ec213bb61},
			recon: [2]uint64{2, 0xb887a09f9694a2e6}, reconA: [2]uint64{4, 0xe829f0b5fb50fe4a},
			dops: Ops{1498, 104995, 1121, 372, 380, 0, 0}, rops: Ops{376, 29696, 304, 116, 37, 0, 0}},
		{name: "fast/pruned/sparse", kind: hashfam.KindFast, pruned: true, acc: 0.2, qsize: 4,
			draws: [2]uint64{64, 0xda9ed0d25519fa31}, multi: [2]uint64{2, 0xe54d074f7522d537}, multiR: [2]uint64{48, 0xb6211031d6c18f5d},
			recon: [2]uint64{2, 0xe54d074f7522d537}, reconA: [2]uint64{4, 0xe829f0b5fb50fe4a},
			dops: Ops{1186, 50176, 775, 182, 175, 0, 0}, rops: Ops{234, 11776, 163, 46, 9, 0, 0}},
		{name: "murmur3/full/sparse", kind: hashfam.KindMurmur3, acc: 0.2, qsize: 4,
			draws: [2]uint64{64, 0x7b13498edf8adf25}, multi: [2]uint64{1, 0x8dff1f0764a0e9}, multiR: [2]uint64{48, 0x2beafc783ce3b025},
			recon: [2]uint64{1, 0x8dff1f0764a0e9}, reconA: [2]uint64{4, 0xe829f0b5fb50fe4a},
			dops: Ops{2714, 206311, 2079, 722, 882, 0, 0}, rops: Ops{386, 27904, 302, 109, 39, 0, 0}},
		{name: "murmur3/pruned/sparse", kind: hashfam.KindMurmur3, pruned: true, acc: 0.2, qsize: 4,
			draws: [2]uint64{0, 0xcbf29ce484222325}, multi: [2]uint64{0, 0xcbf29ce484222325}, multiR: [2]uint64{0, 0xcbf29ce484222325},
			recon: [2]uint64{0, 0xcbf29ce484222325}, reconA: [2]uint64{4, 0xe829f0b5fb50fe4a},
			dops: Ops{2176, 147456, 1600, 512, 768, 0, 0}, rops: Ops{182, 10496, 132, 41, 8, 0, 0}},
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

			var dops, rops Ops
			rng := rand.New(rand.NewSource(11))
			var draws, scratch []uint64
			for i := 0; i < 64; i++ {
				var x uint64
				x, scratch, err = tree.SampleScratch(q, rng, &dops, scratch)
				if err == ErrNoSample {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				draws = append(draws, x)
			}
			multi, err := tree.SampleN(q, 48, false, rand.New(rand.NewSource(12)), &rops)
			if err != nil {
				t.Fatal(err)
			}
			multiR, err := tree.SampleN(q, 48, true, rand.New(rand.NewSource(13)), &rops)
			if err != nil {
				t.Fatal(err)
			}
			recon, err := tree.Reconstruct(q, PruneByEstimate, &rops)
			if err != nil {
				t.Fatal(err)
			}
			reconA, err := tree.Reconstruct(q, PruneByAndBits, &rops)
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
			for _, o := range []struct {
				name      string
				got, want Ops
			}{{"dops", dops, c.dops}, {"rops", rops, c.rops}} {
				if o.got != o.want {
					t.Errorf("%s: {%d, %d, %d, %d, %d}, recorded %v", o.name, o.got.Intersections, o.got.Memberships, o.got.NodesVisited, o.got.LeavesScanned, o.got.Backtracks, o.want)
				}
			}
		})
	}
}
