// Quickstart: store a set in a Bloom filter, then sample from it and
// reconstruct it with a BloomSampleTree — the two operations the paper
// introduces. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"slices"

	bloomsample "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run runs the example, printing what it finds to w.
func run(w io.Writer) error {
	const (
		namespace = 1_000_000 // ids live in [0, 1M)
		setSize   = 1_000
		accuracy  = 0.9 // ≥90% of samples should be true set members
	)

	// 1. Plan Bloom-filter and tree parameters for the desired accuracy.
	plan, err := bloomsample.Plan(accuracy, setSize, namespace, 3)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "planned: m=%d bits, fp=%.2e, tree depth=%d, leaf range=%d\n",
		plan.Bits, plan.FP, plan.Depth, plan.LeafRange)

	// 2. Build the BloomSampleTree once; it serves any number of query
	// filters with the same parameters.
	tree, err := bloomsample.NewTreeWith(plan, bloomsample.WithHash(bloomsample.Murmur3), bloomsample.WithSeed(42))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "tree: %d nodes, %.2f MB\n", tree.Nodes(), float64(tree.MemoryBytes())/(1<<20))

	// 3. Store a set in a query Bloom filter.
	rng := rand.New(rand.NewSource(7))
	q := tree.NewQueryFilter()
	truth := make(map[uint64]bool, setSize)
	for len(truth) < setSize {
		x := rng.Uint64() % namespace
		if !truth[x] {
			truth[x] = true
			q.Add(x)
		}
	}

	// 4. Sample from the filter.
	var ops bloomsample.Ops
	hits := 0
	const rounds = 1000
	for i := 0; i < rounds; i++ {
		x, err := tree.Sample(q, rng, &ops)
		if err != nil {
			return err
		}
		if truth[x] {
			hits++
		}
	}
	fmt.Fprintf(w, "sampling: %d/%d samples were true elements (designed accuracy %.2f)\n",
		hits, rounds, accuracy)
	fmt.Fprintf(w, "avg cost/sample: %.1f intersections, %.1f membership queries (namespace scan would be %d)\n",
		float64(ops.Intersections)/rounds, float64(ops.Memberships)/rounds, namespace)

	// 5. Draw 10 distinct elements in a single pass.
	ten, err := tree.SampleN(q, 10, false, rng, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "10 distinct samples: %v\n", ten)

	// 6. Reconstruct the set (true elements plus the filter's false
	// positives; PruneByAndBits guarantees nothing is missed).
	recon, err := tree.Reconstruct(q, bloomsample.PruneByAndBits, nil)
	if err != nil {
		return err
	}
	missed := 0
	for x := range truth {
		if _, found := slices.BinarySearch(recon, x); !found { // recon is ascending
			missed++
		}
	}
	fmt.Fprintf(w, "reconstruction: %d elements (%d true + %d false positives), %d missed\n",
		len(recon), setSize, len(recon)-setSize+missed, missed)
	return nil
}
