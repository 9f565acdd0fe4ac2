// Call records: the paper's crime-investigation scenario (§1, citing
// MacMillan et al.) — each cell-tower location keeps only a Bloom filter
// of the phone numbers seen there. When a site becomes relevant to an
// investigation, the analyst reconstructs the full number list from the
// filter, and cross-references two sites by reconstructing the
// intersection of their filters.
//
// HashInvert is also demonstrated: with the invertible Simple hash family
// it reconstructs without a tree at all, which wins when filters are very
// sparse or very dense.
//
// Run with:
//
//	go run ./examples/callrecords
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	bloomsample "repro"
)

const (
	numberSpace = 10_000_000 // 7-digit-ish subscriber number space
	accuracy    = 0.95
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run runs the example, printing what it finds to w.
func run(w io.Writer) error {
	rng := rand.New(rand.NewSource(2024))

	// Three towers; tower A and B share the suspects' phones.
	suspects := []uint64{5_551_234, 5_559_876, 5_550_000}
	towerA := randomPhones(rng, 4_000)
	towerB := randomPhones(rng, 2_500)
	towerC := randomPhones(rng, 3_000)
	towerA = append(towerA, suspects...)
	towerB = append(towerB, suspects...)

	// Only Bloom filters are retained at the towers (the paper's
	// storage model). The Simple family keeps HashInvert applicable.
	plan, err := bloomsample.Plan(accuracy, 5_000, numberSpace, 3)
	if err != nil {
		return err
	}
	tree, err := bloomsample.NewTreeWith(plan, bloomsample.WithHash(bloomsample.Simple), bloomsample.WithSeed(7))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "per-tower filter: %d bits (%.1f KB) for ~4000 numbers; tree %.1f MB, built once\n",
		plan.Bits, float64(plan.Bits)/8/1024, float64(tree.MemoryBytes())/(1<<20))

	filters := map[string]*bloomsample.Filter{}
	for name, numbers := range map[string][]uint64{"A": towerA, "B": towerB, "C": towerC} {
		f := tree.NewQueryFilter()
		for _, p := range numbers {
			f.Add(p)
		}
		filters[name] = f
	}

	// Subpoena: all numbers seen at tower A. Evidence must be complete, so
	// the answer walks under PruneByAndBits, which never drops a live
	// branch: every number the tower saw is among the candidates, and
	// precision is governed by the planned accuracy.
	var ops bloomsample.Ops
	recovered, err := tree.Reconstruct(filters["A"], bloomsample.PruneByAndBits, &ops)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "tower A subpoena: %d candidates for %d true numbers "+
		"(%.1f%% precision, %.1f%% recall), %d of the %d numbers tested\n",
		len(recovered), len(towerA), 100*float64(inCount(recovered, towerA))/float64(len(recovered)),
		100*float64(inCount(recovered, towerA))/float64(len(towerA)),
		ops.Memberships, numberSpace)

	// A fast preview: the estimate-pruned walk (§5.6's threshold) scans
	// far fewer leaves, and prunes live ones when the filter holds fewer
	// numbers than it was planned for; its recall says how many.
	var preview bloomsample.Ops
	glimpse, err := tree.Reconstruct(filters["A"], bloomsample.PruneByEstimate, &preview)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "tower A preview (estimate-pruned, incomplete): %d candidates, %.1f%% recall, %d membership queries\n",
		len(glimpse), 100*float64(inCount(glimpse, towerA))/float64(len(towerA)), preview.Memberships)

	// Cross-reference: numbers present at BOTH towers A and B, complete
	// again under PruneByAndBits (at the price of scanning leaves whose
	// filters merely look overlapping).
	ab, err := filters["A"].Intersect(filters["B"])
	if err != nil {
		return err
	}
	common, err := tree.Reconstruct(ab, bloomsample.PruneByAndBits, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cross-reference A∩B: %d common numbers, %d/%d suspects present\n",
		len(common), inCount(common, suspects), len(suspects))

	// HashInvert alternative: no tree, just the invertible hashes.
	hi := bloomsample.HashInvert{Namespace: numberSpace}
	var hiOps bloomsample.Ops
	hiRecovered, err := hi.Reconstruct(filters["C"], &hiOps)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "tower C via HashInvert: %d candidates holding %d of %d true numbers, %d membership queries, zero index memory\n",
		len(hiRecovered), inCount(hiRecovered, towerC), len(towerC), hiOps.Memberships)
	return nil
}

// inCount returns how many elements of truth occur in got.
func inCount(got, truth []uint64) int {
	in := make(map[uint64]bool, len(got))
	for _, x := range got {
		in[x] = true
	}
	n := 0
	for _, x := range truth {
		if in[x] {
			n++
		}
	}
	return n
}

func randomPhones(rng *rand.Rand, n int) []uint64 {
	seen := make(map[uint64]bool, n)
	out := make([]uint64, 0, n)
	for len(out) < n {
		p := rng.Uint64() % numberSpace
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
