// Graph adjacency: the paper's §3.2 framework example — a graph database
// stores each vertex's adjacency list as a Bloom filter. This example
// builds a scale-free graph, keeps only the filters, and runs two classic
// workloads on top of sampling/reconstruction:
//
//   - random-walk simulation (PageRank-style), where each step samples a
//     uniform neighbour from the current vertex's filter, and
//   - triangle spotting, where the common-neighbour set of an edge is
//     reconstructed from the intersection of two adjacency filters.
//
// Run with:
//
//	go run ./examples/graphadj
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

const (
	vertices  = 200_000
	edgesPerV = 8
	accuracy  = 0.95
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run runs the example, printing what it finds to w.
func run(w io.Writer) error {
	rng := rand.New(rand.NewSource(5))

	// Preferential-attachment-style multigraph, deduplicated.
	adj := make([]map[uint64]bool, vertices)
	for v := range adj {
		adj[v] = map[uint64]bool{}
	}
	for v := 1; v < vertices; v++ {
		for e := 0; e < edgesPerV; e++ {
			// Mix uniform and preferential targets for a heavy tail.
			var u int
			if rng.Intn(2) == 0 {
				u = rng.Intn(v)
			} else {
				u = int(float64(v) * rng.Float64() * rng.Float64())
			}
			if u != v {
				adj[v][uint64(u)] = true
				adj[u][uint64(v)] = true
			}
		}
	}

	plan, err := bloomsample.Plan(accuracy, 2*edgesPerV, vertices, 3)
	if err != nil {
		return err
	}
	tree, err := bloomsample.NewTreeWith(plan, bloomsample.WithHash(bloomsample.Murmur3), bloomsample.WithSeed(3))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "adjacency filters: %d bits each (%.0f B); tree %.1f MB shared by all %d vertices\n",
		plan.Bits, float64(plan.Bits)/8, float64(tree.MemoryBytes())/(1<<20), vertices)

	// Keep only the filters.
	filters := make([]*bloomsample.Filter, vertices)
	for v := range filters {
		f := tree.NewQueryFilter()
		for u := range adj[v] {
			f.Add(u)
		}
		filters[v] = f
	}

	// Random walk: 10,000 steps of neighbour sampling. A step that lands on
	// a false positive of the filter follows an edge the graph lacks.
	v := uint64(0)
	visits := map[uint64]int{}
	steps, along, dead := 0, 0, 0
	for i := 0; i < 10_000; i++ {
		next, err := tree.Sample(filters[v], rng, nil)
		if err != nil {
			dead++
			v = uint64(rng.Intn(vertices)) // teleport
			continue
		}
		steps++
		if adj[v][next] {
			along++
		}
		v = next % vertices
		visits[v]++
	}
	top, topN := uint64(0), 0
	for u, c := range visits {
		if c > topN || c == topN && u < top {
			top, topN = u, c
		}
	}
	fmt.Fprintf(w, "random walk: %d steps (%d along true edges, %d teleports); most-visited vertex %d (%d visits, degree %d)\n",
		steps, along, dead, top, topN, len(adj[top]))

	// Triangle spotting around the densest vertices, where triangles
	// actually live in a heavy-tailed graph: common neighbours of (hub, b)
	// for edges incident to the highest-degree vertex.
	hub := uint64(0)
	for v := range adj {
		if len(adj[v]) > len(adj[hub]) {
			hub = uint64(v)
		}
	}
	neighbours := make([]uint64, 0, len(adj[hub]))
	for u := range adj[hub] {
		neighbours = append(neighbours, u)
	}
	slices.Sort(neighbours)
	for i := 0; i < 5 && i < len(neighbours); i++ {
		a := hub
		b := neighbours[rng.Intn(len(neighbours))]
		common, err := filters[a].Intersect(filters[b])
		if err != nil {
			return err
		}
		candidates, err := tree.Reconstruct(common, bloomsample.PruneByEstimate, nil)
		if err != nil {
			return err
		}
		verified := 0
		for _, c := range candidates {
			if adj[a][c] && adj[b][c] {
				verified++
			}
		}
		fmt.Fprintf(w, "edge (%d,%d): %d common-neighbour candidates, %d verified triangles\n",
			a, b, len(candidates), verified)
	}
	return nil
}
