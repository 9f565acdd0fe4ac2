package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestGraphAdjacency runs the example at its seed and checks what it
// prints: the walk makes its 10 000 moves, most of them along edges the
// graph has (a hub holds more neighbours than the 16 its filter is planned
// for, so the walk, which favours hubs, lands on false positives more often
// than the plan's 5 %), and the reconstructions of the common-neighbour
// filters find triangles, each verified against the graph.
func TestGraphAdjacency(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	atoi := func(s string) int {
		t.Helper()
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	walk := regexp.MustCompile(`random walk: (\d+) steps \((\d+) along true edges, (\d+) teleports\)`).FindStringSubmatch(out.String())
	if walk == nil {
		t.Fatalf("no random-walk line in:\n%s", out.String())
	}
	steps, along, teleports := atoi(walk[1]), atoi(walk[2]), atoi(walk[3])
	if steps+teleports != 10_000 || float64(along) < 0.85*float64(steps) {
		t.Errorf("the walk made %d steps and %d teleports, %d steps along true edges; want 10 000 moves, ≥ 85 %% of the steps along edges",
			steps, teleports, along)
	}

	edges := regexp.MustCompile(`edge \(\d+,\d+\): (\d+) common-neighbour candidates, (\d+) verified triangles`).FindAllStringSubmatch(out.String(), -1)
	if len(edges) != 5 {
		t.Fatalf("%d edge lines, want 5, in:\n%s", len(edges), out.String())
	}
	found := 0
	for _, e := range edges {
		if candidates, verified := atoi(e[1]), atoi(e[2]); verified > candidates {
			t.Errorf("%q: more verified triangles than candidates", e[0])
		} else {
			found += verified
		}
	}
	if found == 0 {
		t.Errorf("no edge found a triangle in:\n%s", out.String())
	}
}
