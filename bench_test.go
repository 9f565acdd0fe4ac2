// Benchmarks regenerating every table and figure of the paper's
// evaluation, one benchmark per artifact: the names carry the paper's
// figure and table numbers, the ids `bstbench -list` prints for the same
// experiments (README, "Package layout": internal/experiments). Custom
// metrics attach the quantity the paper plots: intersections/op and
// memberships/op for the operation-count figures, MB for the memory
// tables, accuracy/p-value metrics where relevant.
//
// Defaults are scaled to keep `go test -bench=.` under a few minutes; set
// REPRO_BENCH_FULL=1 to run the paper's namespace sizes (much slower —
// the dictionary attack alone is O(M) per sample).
package bloomsample_test

import (
	"bytes"
	"math/rand"
	"os"
	"strconv"
	"sync/atomic"
	"testing"

	bloomsample "repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/hashfam"
	"repro/internal/stats"
	"repro/internal/workload"
)

func fullScale() bool { return os.Getenv("REPRO_BENCH_FULL") == "1" }

// benchNamespaces returns the three namespace sizes standing in for the
// paper's 10⁵/10⁶/10⁷ sweep.
func benchNamespaces() (small, mid, large uint64) {
	if fullScale() {
		return 100_000, 1_000_000, 10_000_000
	}
	return 100_000, 300_000, 1_000_000
}

func benchTree(b *testing.B, acc float64, n int, M uint64, kind bloomsample.HashKind) *bloomsample.Tree {
	b.Helper()
	plan, err := bloomsample.Plan(acc, uint64(n), M, 3)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := bloomsample.NewTreeWith(plan, bloomsample.WithHash(kind), bloomsample.WithSeed(42))
	if err != nil {
		b.Fatal(err)
	}
	return tree
}

func benchQuery(b *testing.B, tree *bloomsample.Tree, M uint64, n int, clustered bool) *bloomsample.Filter {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	var set []uint64
	var err error
	if clustered {
		set, err = workload.ClusteredSet(rng, M, n, workload.DefaultClusterP)
	} else {
		set, err = workload.UniformSet(rng, M, n)
	}
	if err != nil {
		b.Fatal(err)
	}
	q := tree.NewQueryFilter()
	for _, x := range set {
		q.Add(x)
	}
	return q
}

// benchSamplingOps measures BST sampling and reports the paper's Figure
// 3/4 metrics.
func benchSamplingOps(b *testing.B, clustered bool) {
	small, _, _ := benchNamespaces()
	for _, n := range []int{100, 1000, 10000} {
		b.Run("n="+itoa(n), func(b *testing.B) {
			tree := benchTree(b, 0.9, n, small, bloomsample.Murmur3)
			q := benchQuery(b, tree, small, n, clustered)
			rng := rand.New(rand.NewSource(1))
			var ops bloomsample.Ops
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tree.Sample(q, rng, &ops); err != nil && err != bloomsample.ErrNoSample {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ops.Intersections)/float64(b.N), "intersections/op")
			b.ReportMetric(float64(ops.Memberships)/float64(b.N), "memberships/op")
		})
	}
}

func BenchmarkFig3SamplingOpsUniform(b *testing.B)   { benchSamplingOps(b, false) }
func BenchmarkFig4SamplingOpsClustered(b *testing.B) { benchSamplingOps(b, true) }

// benchSamplingTime measures wall-clock per sample for BST vs DA
// (Figures 5 and 6 use the two larger namespaces).
func benchSamplingTime(b *testing.B, M uint64, clustered bool) {
	const n = 1000
	tree := benchTree(b, 0.9, n, M, bloomsample.Murmur3)
	q := benchQuery(b, tree, M, n, clustered)
	b.Run("BST", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			if _, err := tree.Sample(q, rng, nil); err != nil && err != bloomsample.ErrNoSample {
				b.Fatal(err)
			}
		}
	})
	b.Run("DA", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		da := bloomsample.DictionaryAttack{Namespace: M}
		for i := 0; i < b.N; i++ {
			da.Sample(q, rng, nil)
		}
	})
}

func BenchmarkFig5SamplingTimeLargeM(b *testing.B) {
	_, _, large := benchNamespaces()
	benchSamplingTime(b, large, false)
}

func BenchmarkFig6SamplingTimeMidM(b *testing.B) {
	_, mid, _ := benchNamespaces()
	benchSamplingTime(b, mid, false)
}

// BenchmarkFig7HashFamilies compares sampling time across the paper's
// hash families.
func BenchmarkFig7HashFamilies(b *testing.B) {
	small, _, _ := benchNamespaces()
	const n = 1000
	for _, kind := range []bloomsample.HashKind{bloomsample.Simple, bloomsample.Murmur3, bloomsample.MD5} {
		b.Run(string(kind), func(b *testing.B) {
			tree := benchTree(b, 0.9, n, small, kind)
			q := benchQuery(b, tree, small, n, false)
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tree.Sample(q, rng, nil); err != nil && err != bloomsample.ErrNoSample {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchPlanAndBuild times planning + construction and reports the memory
// column of Tables 2/3.
func benchPlanAndBuild(b *testing.B, M uint64) {
	for _, acc := range []float64{0.5, 0.9} {
		b.Run("acc="+ftoa(acc), func(b *testing.B) {
			var mem uint64
			for i := 0; i < b.N; i++ {
				plan, err := bloomsample.Plan(acc, 1000, M, 3)
				if err != nil {
					b.Fatal(err)
				}
				tree, err := bloomsample.NewTreeWith(plan, bloomsample.WithHash(bloomsample.Murmur3), bloomsample.WithSeed(42))
				if err != nil {
					b.Fatal(err)
				}
				mem = tree.MemoryBytes()
			}
			b.ReportMetric(float64(mem)/(1<<20), "MB")
		})
	}
}

func BenchmarkTable2PlanMidM(b *testing.B) {
	_, mid, _ := benchNamespaces()
	benchPlanAndBuild(b, mid)
}

func BenchmarkTable3PlanLargeM(b *testing.B) {
	_, _, large := benchNamespaces()
	benchPlanAndBuild(b, large)
}

// BenchmarkTable4CreationTime times BuildTree alone (Table 4's creation
// time column) across namespace sizes.
func BenchmarkTable4CreationTime(b *testing.B) {
	small, mid, large := benchNamespaces()
	for _, M := range []uint64{small, mid, large} {
		b.Run("M="+itoa(int(M)), func(b *testing.B) {
			plan, err := bloomsample.Plan(0.9, 1000, M, 3)
			if err != nil {
				b.Fatal(err)
			}
			cfg := plan.TreeConfig(bloomsample.Murmur3, 42)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildTree(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable5ChiSquared runs the uniformity pipeline (batched
// multi-sampling plus the chi-squared statistic) and reports the p-value.
func BenchmarkTable5ChiSquared(b *testing.B) {
	small, _, _ := benchNamespaces()
	const n = 200
	tree := benchTree(b, 0.9, n, small, bloomsample.Murmur3)
	rng := rand.New(rand.NewSource(3))
	set, err := workload.UniformSet(rng, small, n)
	if err != nil {
		b.Fatal(err)
	}
	q := tree.NewQueryFilter()
	index := make(map[uint64]int, n)
	for i, x := range set {
		q.Add(x)
		index[x] = i
	}
	var p float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := make([]int, n)
		for done := 0; done < 130*n; {
			got, err := tree.SampleN(q, 128, true, rng, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(got) == 0 {
				break
			}
			for _, x := range got {
				if j, ok := index[x]; ok {
					counts[j]++
				}
			}
			done += len(got)
		}
		res, err := stats.ChiSquaredUniform(counts)
		if err != nil {
			b.Fatal(err)
		}
		p = res.PValue
	}
	b.ReportMetric(p, "p-value")
}

// BenchmarkTable6MeasuredAccuracy samples and reports the measured
// accuracy metric for design accuracy 0.9.
func BenchmarkTable6MeasuredAccuracy(b *testing.B) {
	small, _, _ := benchNamespaces()
	const n = 1000
	tree := benchTree(b, 0.9, n, small, bloomsample.Murmur3)
	rng := rand.New(rand.NewSource(4))
	set, err := workload.UniformSet(rng, small, n)
	if err != nil {
		b.Fatal(err)
	}
	inSet := make(map[uint64]bool, n)
	q := tree.NewQueryFilter()
	for _, x := range set {
		q.Add(x)
		inSet[x] = true
	}
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := tree.Sample(q, rng, nil)
		if err != nil {
			b.Fatal(err)
		}
		if inSet[x] {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "accuracy")
}

// benchReconstruction measures one reconstruction per iteration for the
// three methods (Figures 8–12; 11/12 are the time view of the same runs).
func benchReconstruction(b *testing.B, M uint64) {
	const n = 1000
	plan, err := bloomsample.Plan(0.9, n, M, 3)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := bloomsample.NewTreeWith(plan, bloomsample.WithHash(bloomsample.Simple), bloomsample.WithSeed(42))
	if err != nil {
		b.Fatal(err)
	}
	q := benchQuery(b, tree, M, n, false)
	b.Run("BST", func(b *testing.B) {
		var ops bloomsample.Ops
		for i := 0; i < b.N; i++ {
			if _, err := tree.Reconstruct(q, bloomsample.PruneByEstimate, &ops); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(ops.Memberships)/float64(b.N), "memberships/op")
		b.ReportMetric(float64(ops.Intersections)/float64(b.N), "intersections/op")
	})
	b.Run("HI", func(b *testing.B) {
		hi := bloomsample.HashInvert{Namespace: M}
		var ops bloomsample.Ops
		for i := 0; i < b.N; i++ {
			if _, err := hi.Reconstruct(q, &ops); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(ops.Memberships)/float64(b.N), "memberships/op")
	})
	b.Run("DA", func(b *testing.B) {
		da := bloomsample.DictionaryAttack{Namespace: M}
		var ops bloomsample.Ops
		for i := 0; i < b.N; i++ {
			da.Reconstruct(q, &ops)
		}
		b.ReportMetric(float64(ops.Memberships)/float64(b.N), "memberships/op")
	})
}

func BenchmarkFig8ReconstructionSmallM(b *testing.B) {
	small, _, _ := benchNamespaces()
	benchReconstruction(b, small)
}

func BenchmarkFig9ReconstructionMidM(b *testing.B) {
	_, mid, _ := benchNamespaces()
	benchReconstruction(b, mid)
}

func BenchmarkFig10ReconstructionLargeM(b *testing.B) {
	_, _, large := benchNamespaces()
	benchReconstruction(b, large)
}

// Figures 11/12 report the same runs as wall-clock time; the ns/op of
// these benchmarks is that series at a second query-set size.
func benchReconstructionTime(b *testing.B, M uint64) {
	const n = 100
	plan, err := bloomsample.Plan(0.9, n, M, 3)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := bloomsample.NewTreeWith(plan, bloomsample.WithHash(bloomsample.Simple), bloomsample.WithSeed(42))
	if err != nil {
		b.Fatal(err)
	}
	q := benchQuery(b, tree, M, n, false)
	hi := bloomsample.HashInvert{Namespace: M}
	da := bloomsample.DictionaryAttack{Namespace: M}
	b.Run("BST", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tree.Reconstruct(q, bloomsample.PruneByEstimate, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("HI", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hi.Reconstruct(q, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			da.Reconstruct(q, nil)
		}
	})
}

func BenchmarkFig11ReconstructionTimeMidM(b *testing.B) {
	_, mid, _ := benchNamespaces()
	benchReconstructionTime(b, mid)
}

func BenchmarkFig12ReconstructionTimeLargeM(b *testing.B) {
	_, _, large := benchNamespaces()
	benchReconstructionTime(b, large)
}

// benchCrawl builds the §8 synthetic crawl and pruned tree at one
// namespace fraction.
func benchCrawl(b *testing.B, fraction float64) (*bloomsample.Tree, *workload.Crawl) {
	b.Helper()
	scale := 1000
	if fullScale() {
		scale = 100
	}
	M := workload.TwitterNamespace / uint64(scale)
	population := workload.TwitterPopulation / scale
	rng := rand.New(rand.NewSource(9))
	idx, err := workload.SelectLeavesUniform(rng, workload.NamespaceLeaves, fraction)
	if err != nil {
		b.Fatal(err)
	}
	ns, err := workload.PopulateNamespace(rng, M, workload.NamespaceLeaves, idx, population)
	if err != nil {
		b.Fatal(err)
	}
	crawl, err := workload.SynthesizeCrawl(rng, ns, workload.CrawlConfig{
		M: M, Population: population, Hashtags: 100, MinTagSize: population / 7200 * 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := bloomsample.Plan(0.8, uint64(population/100), M, 3)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := bloomsample.NewPrunedTreeWith(plan, ns.IDs, bloomsample.WithHash(bloomsample.Murmur3), bloomsample.WithSeed(5))
	if err != nil {
		b.Fatal(err)
	}
	return tree, crawl
}

// BenchmarkFig13LowOccupancySampling measures per-sample time on the
// pruned tree at two namespace fractions.
func BenchmarkFig13LowOccupancySampling(b *testing.B) {
	for _, fraction := range []float64{0.1, 0.5} {
		b.Run("fraction="+ftoa(fraction), func(b *testing.B) {
			tree, crawl := benchCrawl(b, fraction)
			rng := rand.New(rand.NewSource(2))
			filters := make([]*bloomsample.Filter, len(crawl.Tags))
			for i, tag := range crawl.Tags {
				f := tree.NewQueryFilter()
				for _, u := range tag {
					f.Add(u)
				}
				filters[i] = f
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := filters[i%len(filters)]
				if _, err := tree.Sample(q, rng, nil); err != nil && err != bloomsample.ErrNoSample {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig14LowOccupancyMemory reports pruned-tree memory at two
// fractions (the build is the timed operation).
func BenchmarkFig14LowOccupancyMemory(b *testing.B) {
	for _, fraction := range []float64{0.1, 0.5} {
		b.Run("fraction="+ftoa(fraction), func(b *testing.B) {
			var mem uint64
			for i := 0; i < b.N; i++ {
				tree, _ := benchCrawl(b, fraction)
				mem = tree.MemoryBytes()
			}
			b.ReportMetric(float64(mem)/(1<<20), "MB")
		})
	}
}

// BenchmarkFig15LowOccupancyAccuracy reports measured sampling accuracy on
// the pruned tree (designed 0.8; §8 expects higher at low occupancy).
func BenchmarkFig15LowOccupancyAccuracy(b *testing.B) {
	tree, crawl := benchCrawl(b, 0.2)
	rng := rand.New(rand.NewSource(3))
	hits, total := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tag := crawl.Tags[i%len(crawl.Tags)]
		q := tree.NewQueryFilter()
		for _, u := range tag {
			q.Add(u)
		}
		x, err := tree.Sample(q, rng, nil)
		if err != nil {
			continue
		}
		total++
		if sortedContains(tag, x) {
			hits++
		}
	}
	if total > 0 {
		b.ReportMetric(float64(hits)/float64(total), "accuracy")
	}
}

// BenchmarkAblationThreshold sweeps the §5.6 empty-intersection threshold.
func BenchmarkAblationThreshold(b *testing.B) {
	small, _, _ := benchNamespaces()
	const n = 1000
	plan, err := bloomsample.Plan(0.9, n, small, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, thr := range []float64{0.1, 0.5, 2} {
		b.Run("thr="+ftoa(thr), func(b *testing.B) {
			cfg := plan.TreeConfig(bloomsample.Murmur3, 42)
			cfg.EmptyThreshold = thr
			tree, err := bloomsample.NewTreeFromConfig(cfg)
			if err != nil {
				b.Fatal(err)
			}
			q := benchQuery(b, tree, small, n, false)
			rng := rand.New(rand.NewSource(1))
			var ops bloomsample.Ops
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tree.Sample(q, rng, &ops); err != nil && err != bloomsample.ErrNoSample {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ops.Memberships)/float64(b.N), "memberships/op")
		})
	}
}

// BenchmarkAblationMultiSample compares one 100-path pass against 100
// repeated single samples.
func BenchmarkAblationMultiSample(b *testing.B) {
	small, _, _ := benchNamespaces()
	const n = 1000
	tree := benchTree(b, 0.9, n, small, bloomsample.Murmur3)
	q := benchQuery(b, tree, small, n, false)
	b.Run("single-pass-100", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			if _, err := tree.SampleN(q, 100, true, rng, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("repeated-100", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			for j := 0; j < 100; j++ {
				if _, err := tree.Sample(q, rng, nil); err != nil && err != bloomsample.ErrNoSample {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationBuild compares the leaf-up union construction against
// naive per-level insertion (the hashing work only).
func BenchmarkAblationBuild(b *testing.B) {
	small, _, _ := benchNamespaces()
	plan, err := bloomsample.Plan(0.9, 1000, small, 3)
	if err != nil {
		b.Fatal(err)
	}
	cfg := plan.TreeConfig(bloomsample.Murmur3, 42)
	b.Run("leaf-up-unions", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildTree(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-level-insertion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			naivePerLevelInsert(cfg)
		}
	})
}

func naivePerLevelInsert(cfg core.Config) {
	fam := hashfam.MustNew(cfg.HashKind, cfg.Bits, cfg.K, cfg.Seed)
	for level := 0; level <= cfg.Depth; level++ {
		nodes := uint64(1) << level
		per := (cfg.Namespace + nodes - 1) / nodes
		f := make([]*bloomFilterShim, nodes)
		for i := range f {
			f[i] = newShim(fam)
		}
		for x := uint64(0); x < cfg.Namespace; x++ {
			f[x/per].add(x)
		}
	}
}

// bloomFilterShim avoids importing internal/bloom twice with different
// names; it reproduces the insert cost (hashing + bit sets).
type bloomFilterShim struct {
	fam  hashfam.Family
	bits []uint64
	buf  []uint64
}

func newShim(fam hashfam.Family) *bloomFilterShim {
	return &bloomFilterShim{fam: fam, bits: make([]uint64, (fam.M()+63)/64), buf: make([]uint64, 0, fam.K())}
}

func (s *bloomFilterShim) add(x uint64) {
	s.buf = s.fam.Positions(x, s.buf[:0])
	for _, p := range s.buf {
		s.bits[p/64] |= 1 << (p % 64)
	}
}

// BenchmarkAblationHashInvert sweeps filter density for HashInvert
// reconstruction (sparse set-bit vs dense unset-bit variants).
func BenchmarkAblationHashInvert(b *testing.B) {
	small, _, _ := benchNamespaces()
	for _, n := range []int{100, 10000} {
		b.Run("n="+itoa(n), func(b *testing.B) {
			plan, err := bloomsample.Plan(0.8, uint64(n), small, 3)
			if err != nil {
				b.Fatal(err)
			}
			tree, err := bloomsample.NewTreeWith(plan, bloomsample.WithHash(bloomsample.Simple), bloomsample.WithSeed(42))
			if err != nil {
				b.Fatal(err)
			}
			q := benchQuery(b, tree, small, n, false)
			hi := baseline.HashInvert{Namespace: small}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := hi.Reconstruct(q, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(q.FillRatio(), "fill")
		})
	}
}

func sortedContains(xs []uint64, x uint64) bool {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(xs) && xs[lo] == x
}

func itoa(n int) string { return strconv.Itoa(n) }

func ftoa(f float64) string { return strconv.FormatFloat(f, 'f', 1, 64) }

// BenchmarkAblationParallelBuild measures BuildTreeParallel scaling.
func BenchmarkAblationParallelBuild(b *testing.B) {
	_, _, large := benchNamespaces()
	plan, err := bloomsample.Plan(0.9, 1000, large, 3)
	if err != nil {
		b.Fatal(err)
	}
	cfg := plan.TreeConfig(bloomsample.Murmur3, 42)
	for _, workers := range []int{1, 4} {
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildTreeParallel(cfg, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDynamicInsert measures the §5.2 per-insert cost on a
// pruned tree (proportional to tree height).
func BenchmarkAblationDynamicInsert(b *testing.B) {
	_, _, large := benchNamespaces()
	plan, err := bloomsample.Plan(0.9, 1000, large, 3)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := bloomsample.NewPrunedTreeWith(plan, nil, bloomsample.WithHash(bloomsample.Murmur3), bloomsample.WithSeed(42))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Insert(rng.Uint64() % large); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tree.Nodes()), "final-nodes")
}

// BenchmarkTreeSerialization measures tree save/load round trips.
func BenchmarkTreeSerialization(b *testing.B) {
	small, _, _ := benchNamespaces()
	tree := benchTree(b, 0.9, 1000, small, bloomsample.Murmur3)
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

// BenchmarkUniformSampler measures the rejection-corrected sampler
// against the raw BSTSample (the uniformity/throughput tradeoff).
func BenchmarkUniformSampler(b *testing.B) {
	small, _, _ := benchNamespaces()
	const n = 1000
	tree := benchTree(b, 0.9, n, small, bloomsample.Murmur3)
	q := benchQuery(b, tree, small, n, false)
	b.Run("raw", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			if _, err := tree.Sample(q, rng, nil); err != nil && err != bloomsample.ErrNoSample {
				b.Fatal(err)
			}
		}
	})
	b.Run("corrected", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		s, err := tree.NewUniformSampler(q)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := s.Sample(rng, nil); err != nil {
				b.Fatal(err)
			}
		}
		st := s.Stats()
		b.ReportMetric(float64(st.Attempts)/float64(st.Accepted), "attempts/sample")
	})
}

// BenchmarkSetDBParallelSample quantifies the lock-free read path: every
// Sample on the old exclusive-lock DB serialized all callers, so RunParallel
// throughput could not exceed single-goroutine throughput. With immutable
// filter/tree reads and sharded read locks, samples/sec scales with
// GOMAXPROCS. Compare ns/op at -cpu=1 vs -cpu=8 (or set the "goroutines"
// metric in the concurrency experiment: `bstbench -exp concurrency`).
func BenchmarkSetDBParallelSample(b *testing.B) {
	small, _, _ := benchNamespaces()
	const n = 1000
	db, err := bloomsample.Open(small, bloomsample.WithAccuracy(0.9), bloomsample.WithDesignSetSize(n), bloomsample.WithK(3))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	set, err := workload.UniformSet(rng, small, n)
	if err != nil {
		b.Fatal(err)
	}
	if err := db.Add("bench", set...); err != nil {
		b.Fatal(err)
	}
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			if _, err := db.Sample("bench", rng, nil); err != nil && err != bloomsample.ErrNoSample {
				b.Error(err) // Fatal must not be called off the benchmark goroutine
				return
			}
		}
	})
}

// BenchmarkSetDBSampleMany measures the batch API end to end (including
// worker startup) at several worker counts.
func BenchmarkSetDBSampleMany(b *testing.B) {
	small, _, _ := benchNamespaces()
	const n = 1000
	db, err := bloomsample.Open(small, bloomsample.WithAccuracy(0.9), bloomsample.WithDesignSetSize(n), bloomsample.WithK(3))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	set, err := workload.UniformSet(rng, small, n)
	if err != nil {
		b.Fatal(err)
	}
	if err := db.Add("bench", set...); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.SampleManyWorkers("bench", 256, workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
