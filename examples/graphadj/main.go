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
	"log"
	"math/rand"

	bloomsample "repro"
)

const (
	vertices  = 200_000
	edgesPerV = 8
	accuracy  = 0.95
)

func main() {
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
		log.Fatal(err)
	}
	tree, err := bloomsample.NewTreeWith(plan, bloomsample.WithHash(bloomsample.Murmur3), bloomsample.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adjacency filters: %d bits each (%.0f B); tree %.1f MB shared by all %d vertices\n",
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

	// Random walk: 10,000 steps of neighbour sampling.
	v := uint64(0)
	visits := map[uint64]int{}
	steps, dead := 0, 0
	for i := 0; i < 10_000; i++ {
		next, err := tree.Sample(filters[v], rng, nil)
		if err != nil {
			dead++
			v = uint64(rng.Intn(vertices)) // teleport
			continue
		}
		steps++
		v = next % vertices
		visits[v]++
	}
	top, topN := uint64(0), 0
	for u, c := range visits {
		if c > topN {
			top, topN = u, c
		}
	}
	fmt.Printf("random walk: %d steps (%d teleports); most-visited vertex %d (%d visits, degree %d)\n",
		steps, dead, top, topN, len(adj[top]))

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
	for i := 0; i < 5 && i < len(neighbours); i++ {
		a := hub
		b := neighbours[rng.Intn(len(neighbours))]
		common, err := filters[a].Intersect(filters[b])
		if err != nil {
			log.Fatal(err)
		}
		candidates, err := tree.Reconstruct(common, bloomsample.PruneByEstimate, nil)
		if err != nil {
			log.Fatal(err)
		}
		verified := 0
		for _, c := range candidates {
			if adj[a][c] && adj[b][c] {
				verified++
			}
		}
		fmt.Printf("edge (%d,%d): %d common-neighbour candidates, %d verified triangles\n",
			a, b, len(candidates), verified)
	}
}
