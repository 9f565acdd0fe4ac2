// The two library paths no other harness measures: a tree's save/load
// round trip and the rejection-corrected uniform sampler. The paper's
// tables and figures are regenerated by cmd/bstbench (one runner per
// artifact in internal/experiments); the served system is measured by
// bench/ (`go run ./bench`).
package bloomsample_test

import (
	"bytes"
	"math/rand"
	"testing"

	bloomsample "repro"
	"repro/internal/core"
	"repro/internal/workload"
)

// benchM is the namespace both benchmarks run at (the paper's smallest).
const benchM = 100_000

// benchTree plans and builds the tree for sets of n ids at accuracy 0.9.
func benchTree(b *testing.B, n int) *bloomsample.Tree {
	b.Helper()
	plan, err := bloomsample.Plan(0.9, uint64(n), benchM, 3)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := bloomsample.NewTreeWith(plan, bloomsample.WithHash(bloomsample.Murmur3), bloomsample.WithSeed(42))
	if err != nil {
		b.Fatal(err)
	}
	return tree
}

// benchQuery is the query filter of a seeded uniform set of n ids.
func benchQuery(b *testing.B, tree *bloomsample.Tree, n int) *bloomsample.Filter {
	b.Helper()
	set, err := workload.UniformSet(rand.New(rand.NewSource(7)), benchM, n)
	if err != nil {
		b.Fatal(err)
	}
	q := tree.NewQueryFilter()
	for _, x := range set {
		q.Add(x)
	}
	return q
}

// BenchmarkTreeSerialization measures tree save/load round trips.
func BenchmarkTreeSerialization(b *testing.B) {
	tree := benchTree(b, 1000)
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var w bytes.Buffer
			if _, err := tree.WriteTo(&w); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(data))/(1<<20), "MB")
	})
	b.Run("read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ReadTree(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExactSample measures an exactly uniform draw against the raw
// BSTSample (the uniformity/throughput tradeoff): the first draw on a fresh
// filter version, which pays for the version's scan of the leaves, and a
// draw on a version that has its table.
func BenchmarkExactSample(b *testing.B) {
	const n = 1000
	tree := benchTree(b, n)
	q := benchQuery(b, tree, n)
	b.Run("raw", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			if _, err := tree.Sample(q, rng, nil); err != nil && err != bloomsample.ErrNoSample {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact-first", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh := q.Clone()
			b.StartTimer()
			p := tree.VersionFor(fresh).Exact()
			sink = p.Select(rng.Intn(p.Len()))
		}
	})
	b.Run("exact-warm", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			p := tree.VersionFor(q).Exact()
			sink = p.Select(rng.Intn(p.Len()))
		}
	})
}

// sink keeps a benchmark's result alive.
var sink uint64
