package bloomsample_test

import (
	"fmt"
	"math/rand"

	bloomsample "repro"
)

// The basic workflow: plan parameters for a desired accuracy, build the
// tree once, store a set in a compatible filter, then sample and
// reconstruct.
func Example() {
	plan, _ := bloomsample.Plan(0.9, 100, 100_000, 3)
	tree, _ := bloomsample.NewTreeWith(plan, bloomsample.WithHash(bloomsample.Murmur3), bloomsample.WithSeed(42))

	q := tree.NewQueryFilter()
	for _, x := range []uint64{11, 22, 33, 44, 55} {
		q.Add(x)
	}

	rng := rand.New(rand.NewSource(7))
	x, _ := tree.Sample(q, rng, nil)
	fmt.Println("sample is a positive:", q.Contains(x))

	set, _ := tree.Reconstruct(q, bloomsample.PruneByAndBits, nil)
	fmt.Println("reconstruction contains 33:", contains(set, 33))
	// Output:
	// sample is a positive: true
	// reconstruction contains 33: true
}

// Pruned trees cover only the occupied portion of a sparse namespace and
// grow as new identifiers appear.
func ExampleNewPrunedTreeWith() {
	plan, _ := bloomsample.Plan(0.8, 100, 10_000_000, 3)
	occupied := []uint64{5, 1_000_000, 9_999_999}
	tree, _ := bloomsample.NewPrunedTreeWith(plan, occupied, bloomsample.WithHash(bloomsample.Murmur3), bloomsample.WithSeed(1))

	full, _ := bloomsample.NewTreeWith(plan, bloomsample.WithHash(bloomsample.Murmur3), bloomsample.WithSeed(1))
	fmt.Println("pruned smaller than full:", tree.MemoryBytes() < full.MemoryBytes())

	before := tree.Nodes()
	_ = tree.Insert(4_242_424)
	fmt.Println("grew on insert:", tree.Nodes() > before)
	// Output:
	// pruned smaller than full: true
	// grew on insert: true
}

// The SetDB stores many named sets against one shared tree — the paper's
// §3.2 database of Bloom-filter-encoded sets. A key is a set; the write
// that creates it says whether members can later leave it, and every read
// serves either kind.
func ExampleOpen() {
	db, _ := bloomsample.Open(1_000_000, bloomsample.WithAccuracy(0.9), bloomsample.WithDesignSetSize(1000), bloomsample.WithK(3))

	_ = db.Add("team-a", 1, 2, 3)
	_ = db.AddDynamic("team-b", 3, 4, 5) // a set members can leave
	_ = db.RemoveDynamic("team-b", 5)

	ok, _ := db.Contains("team-a", 2)
	fmt.Println("team-a has 2:", ok)
	ok, _ = db.Contains("team-b", 5)
	fmt.Println("team-b still has 5:", ok)

	est, _ := db.IntersectionEstimate("team-a", "team-b")
	fmt.Println("overlap estimate is small:", est < 3)
	fmt.Println("keys:", db.Keys())
	// Output:
	// team-a has 2: true
	// team-b still has 5: false
	// overlap estimate is small: true
	// keys: [team-a team-b]
}

// A filter version's exact table trades one scan of the leaves for exact
// uniformity from the first draw — use it when downstream statistics assume
// unbiased samples.
func ExampleTree_VersionFor() {
	plan, _ := bloomsample.Plan(0.9, 100, 100_000, 3)
	tree, _ := bloomsample.NewTreeWith(plan, bloomsample.WithHash(bloomsample.Murmur3), bloomsample.WithSeed(42))
	q := tree.NewQueryFilter()
	for x := uint64(0); x < 100; x++ {
		q.Add(x * 997)
	}

	positives := tree.VersionFor(q).Exact()
	rng := rand.New(rand.NewSource(3))
	x := positives.Select(rng.Intn(positives.Len()))
	fmt.Println("uniform sample is a positive:", q.Contains(x))
	// Output:
	// uniform sample is a positive: true
}

// DictionaryAttack is the O(M) baseline — exact but namespace-bound.
func ExampleDictionaryAttack() {
	f, _ := bloomsample.NewFilterWith(10_000, 3, bloomsample.WithHash(bloomsample.Murmur3), bloomsample.WithSeed(1))
	f.Add(700)

	da := bloomsample.DictionaryAttack{Namespace: 1_000}
	var ops bloomsample.Ops
	got := da.Reconstruct(f, &ops)
	fmt.Println("found below 1000:", len(got), "memberships:", ops.Memberships)
	// Output:
	// found below 1000: 1 memberships: 1000
}

func contains(xs []uint64, x uint64) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
