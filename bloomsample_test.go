package bloomsample_test

import (
	"math/rand"
	"testing"

	bloomsample "repro"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	plan, err := bloomsample.Plan(0.9, 500, 100_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bits == 0 || plan.Depth == 0 {
		t.Fatalf("degenerate plan: %+v", plan)
	}
	tree, err := bloomsample.NewTreeWith(plan, bloomsample.WithHash(bloomsample.Murmur3), bloomsample.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	q := tree.NewQueryFilter()
	set := map[uint64]bool{}
	for len(set) < 500 {
		x := rng.Uint64() % 100_000
		if !set[x] {
			set[x] = true
			q.Add(x)
		}
	}

	// Sampling.
	hits := 0
	for i := 0; i < 200; i++ {
		x, err := tree.Sample(q, rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !q.Contains(x) {
			t.Fatalf("sample %d not a positive", x)
		}
		if set[x] {
			hits++
		}
	}
	if hits < 150 { // design accuracy 0.9, generous slack
		t.Fatalf("only %d/200 samples were true elements", hits)
	}

	// Multi-sampling.
	many, err := tree.SampleN(q, 50, false, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, x := range many {
		if seen[x] {
			t.Fatalf("duplicate %d without replacement", x)
		}
		seen[x] = true
	}

	// Reconstruction with perfect recall.
	recon, err := tree.Reconstruct(q, bloomsample.PruneByAndBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]bool{}
	for _, x := range recon {
		got[x] = true
	}
	for x := range set {
		if !got[x] {
			t.Fatalf("reconstruction missed true element %d", x)
		}
	}
}

func TestPublicAPIPrunedTree(t *testing.T) {
	plan, err := bloomsample.Plan(0.8, 100, 1_000_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	occupied := make([]uint64, 0, 1000)
	for i := 0; i < 1000; i++ {
		occupied = append(occupied, uint64(i)*13+5)
	}
	tree, err := bloomsample.NewPrunedTreeWith(plan, occupied, bloomsample.WithHash(bloomsample.Murmur3), bloomsample.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Pruned() {
		t.Fatal("tree not pruned")
	}
	full, err := bloomsample.NewTreeWith(plan, bloomsample.WithHash(bloomsample.Murmur3), bloomsample.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if tree.MemoryBytes() >= full.MemoryBytes() {
		t.Fatalf("pruned tree (%d B) not smaller than full (%d B)",
			tree.MemoryBytes(), full.MemoryBytes())
	}

	// Dynamic growth.
	before := tree.Nodes()
	if err := tree.Insert(999_999); err != nil {
		t.Fatal(err)
	}
	if tree.Nodes() <= before {
		t.Fatal("Insert did not grow the tree")
	}
	rng := rand.New(rand.NewSource(2))
	q := tree.NewQueryFilter()
	q.Add(999_999)
	x, err := tree.Sample(q, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Contains(x) {
		t.Fatal("sample not a positive")
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	f, err := bloomsample.NewFilterWith(5000, 3, bloomsample.WithHash(bloomsample.Simple), bloomsample.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []uint64{10, 20, 30} {
		f.Add(x)
	}
	rng := rand.New(rand.NewSource(3))
	da := bloomsample.DictionaryAttack{Namespace: 10_000}
	if x, ok := da.Sample(f, rng, nil); !ok || !f.Contains(x) {
		t.Fatal("DictionaryAttack sample failed")
	}
	hi := bloomsample.HashInvert{Namespace: 10_000}
	recon, err := hi.Reconstruct(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := da.Reconstruct(f, nil)
	if len(recon) != len(want) {
		t.Fatalf("HashInvert %d vs DictionaryAttack %d", len(recon), len(want))
	}
}

func TestPublicAPIEstimators(t *testing.T) {
	if fp := bloomsample.FalsePositiveRate(60870, 3, 1000); fp <= 0 || fp >= 1 {
		t.Fatalf("fp = %v", fp)
	}
	if acc := bloomsample.Accuracy(1000, 1_000_000, 0); acc != 1 {
		t.Fatalf("acc = %v", acc)
	}
	if p := bloomsample.FalseSetOverlapProb(1000, 3, 10, 10); p <= 0 || p >= 1 {
		t.Fatalf("fso = %v", p)
	}
	a, _ := bloomsample.NewFilterWith(10_000, 3, bloomsample.WithHash(bloomsample.Murmur3), bloomsample.WithSeed(1))
	b, _ := bloomsample.NewFilterWith(10_000, 3, bloomsample.WithHash(bloomsample.Murmur3), bloomsample.WithSeed(1))
	for x := uint64(0); x < 100; x++ {
		a.Add(x)
		b.Add(x + 50)
	}
	est := bloomsample.EstimateIntersection(a, b)
	if est < 20 || est > 90 {
		t.Fatalf("intersection estimate %v, want ~50", est)
	}
}

func TestPublicAPICalibration(t *testing.T) {
	c, err := bloomsample.CalibrateCosts(bloomsample.Murmur3, 30_000, 3, 500)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := bloomsample.PlanWithCostRatio(0.9, 1000, 1_000_000, 3, c.Ratio())
	if err != nil {
		t.Fatal(err)
	}
	if plan.CostRatio != c.Ratio() {
		t.Fatal("cost ratio not threaded through")
	}
}
