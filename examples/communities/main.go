// Communities: the paper's motivating social-network scenario (§1) —
// millions of dynamic online communities stored compactly as Bloom
// filters, from which an advertiser samples members to estimate audience
// composition without ever materializing the member lists.
//
// This example stores many overlapping "hashtag communities" over a
// sparse user-id namespace, builds one Pruned-BloomSampleTree for the
// occupied ids, and answers two advertiser questions:
//
//  1. "Give me a quick panel of members of #gadgets" — multi-sampling.
//  2. "How much does #gadgets overlap #photography?" — intersection
//     estimation plus sampling from the AND filter.
//
// Run with:
//
//	go run ./examples/communities
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"slices"

	bloomsample "repro"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run runs the example, printing what it finds to w.
func run(w io.Writer) error {
	const (
		namespace  = 50_000_000 // user-id space (sparse: ~1% occupied)
		population = 500_000    // actual users
		accuracy   = 0.9
	)
	rng := rand.New(rand.NewSource(99))

	// The user base occupies a fifth of the namespace's 256 leaf ranges,
	// as real id spaces do (allocation in blocks).
	leafIdx, err := workload.SelectLeavesUniform(rng, workload.NamespaceLeaves, 0.2)
	if err != nil {
		return err
	}
	ns, err := workload.PopulateNamespace(rng, namespace, workload.NamespaceLeaves, leafIdx, population)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "user base: %d users in %.0f%% of a %d-id namespace\n",
		len(ns.IDs), ns.Fraction()*100, namespace)

	// Communities of heavy-tailed sizes, skewed toward active users.
	crawl, err := workload.SynthesizeCrawl(rng, ns, workload.CrawlConfig{
		M: namespace, Population: population, Hashtags: 500, MinTagSize: 500,
	})
	if err != nil {
		return err
	}

	// One pruned tree serves every community filter.
	plan, err := bloomsample.Plan(accuracy, 5_000, namespace, 3)
	if err != nil {
		return err
	}
	tree, err := bloomsample.NewPrunedTreeWith(plan, ns.IDs, bloomsample.WithHash(bloomsample.Murmur3), bloomsample.WithSeed(1))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pruned tree: %d nodes, %.1f MB (full tree would be %.1f MB)\n",
		tree.Nodes(), float64(tree.MemoryBytes())/(1<<20),
		float64((uint64(1)<<(plan.Depth+1)-1)*((plan.Bits+63)/64*8))/(1<<20))

	// Store every community as a Bloom filter — the only representation
	// we keep; the member lists are discarded.
	filters := make([]*bloomsample.Filter, len(crawl.Tags))
	for i, tag := range crawl.Tags {
		f := tree.NewQueryFilter()
		for _, u := range tag {
			f.Add(u)
		}
		filters[i] = f
	}
	gadgets, photo := 0, 1
	fmt.Fprintf(w, "#gadgets: ~%.0f members (estimated from its filter alone; true %d)\n",
		filters[gadgets].EstimateCardinality(), len(crawl.Tags[gadgets]))

	// Question 1: a 20-user panel from #gadgets, no member list needed.
	panel, err := tree.SampleN(filters[gadgets], 20, false, rng, nil)
	if err != nil {
		return err
	}
	inTag := 0
	for _, u := range panel {
		if containsSorted(crawl.Tags[gadgets], u) {
			inTag++
		}
	}
	fmt.Fprintf(w, "panel of %d users drawn; %d verified true members (accuracy target %.2f)\n",
		len(panel), inTag, accuracy)

	// Question 2: overlap of two communities via filter intersection.
	est := bloomsample.EstimateIntersection(filters[gadgets], filters[photo])
	trueOverlap := overlap(crawl.Tags[gadgets], crawl.Tags[photo])
	fmt.Fprintf(w, "overlap #gadgets ∩ #photography: estimated %.0f users, true %d\n", est, trueOverlap)

	both, err := filters[gadgets].Intersect(filters[photo])
	if err != nil {
		return err
	}
	common, err := tree.SampleN(both, 5, false, rng, nil)
	if err != nil {
		return err
	}
	inBoth := 0
	for _, u := range common {
		if containsSorted(crawl.Tags[gadgets], u) && containsSorted(crawl.Tags[photo], u) {
			inBoth++
		}
	}
	fmt.Fprintf(w, "sampled %d of 5 requested users from the intersection filter, %d in both communities: %v\n",
		len(common), inBoth, common)
	return nil
}

func containsSorted(xs []uint64, x uint64) bool {
	_, found := slices.BinarySearch(xs, x)
	return found
}

func overlap(a, b []uint64) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
