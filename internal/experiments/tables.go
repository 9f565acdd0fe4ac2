package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// RunPlanTable reproduces Tables 2 (M = 10⁶) and 3 (M = 10⁷): the planned
// Bloom-filter size m, tree depth, leaf range M⊥ and total memory for each
// desired accuracy at n = 10³ (or the closest configured set size).
func RunPlanTable(cfg Config, M uint64) ([]*Table, error) {
	n := closestSetSize(cfg, 1000)
	tbl := &Table{
		ID:      fmt.Sprintf("plan-M%d", M),
		Title:   fmt.Sprintf("BloomSampleTree parameters for n=%d, M=%d", n, M),
		Columns: []string{"accuracy", "m_bits", "depth", "leaf_range", "memory_MB", "nodes"},
	}
	for _, acc := range cfg.Accuracies {
		tree, plan, err := cfg.buildTreeFor(acc, n, M)
		if err != nil {
			return nil, err
		}
		tbl.Add(
			fmt.Sprintf("%.1f", acc),
			fmt.Sprint(plan.Bits),
			fmt.Sprint(plan.Depth),
			fmt.Sprint(plan.LeafRange),
			fmt.Sprintf("%.3f", float64(tree.MemoryBytes())/(1<<20)),
			fmt.Sprint(tree.Nodes()),
		)
	}
	return []*Table{tbl}, nil
}

// RunCreationTime reproduces Table 4: wall-clock time to create the
// BloomSampleTree for each namespace size and desired accuracy.
func RunCreationTime(cfg Config) ([]*Table, error) {
	n := closestSetSize(cfg, 1000)
	tbl := &Table{
		ID:      "creation-time",
		Title:   fmt.Sprintf("BloomSampleTree creation time (n=%d, GOMAXPROCS=%d)", n, runtime.GOMAXPROCS(0)),
		Columns: []string{"M", "accuracy", "m_bits", "depth", "create_ms"},
	}
	for _, M := range cfg.Namespaces {
		for _, acc := range cfg.Accuracies {
			plan, err := core.PlanTree(acc, uint64(n), M, cfg.K, 0)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if _, err := core.BuildTree(plan.TreeConfig(cfg.HashKind, cfg.Seed)); err != nil {
				return nil, err
			}
			ms := float64(time.Since(start).Microseconds()) / 1000
			tbl.Add(fmt.Sprint(M), fmt.Sprintf("%.1f", acc),
				fmt.Sprint(plan.Bits), fmt.Sprint(plan.Depth), fmt.Sprintf("%.2f", ms))
		}
	}
	return []*Table{tbl}, nil
}

// RunChiSquared reproduces Table 5: Pearson chi-squared p-values for the
// uniformity of BST samples, for each accuracy and query-set size, with
// T = ChiSqRoundsFactor·n sampling rounds (§7.2; the paper's significance
// level is 0.08).
func RunChiSquared(cfg Config) ([]*Table, error) {
	M := middleNamespace(cfg)
	tbl := &Table{
		ID:      fmt.Sprintf("chisq-M%d", M),
		Title:   fmt.Sprintf("Sample-uniformity p-values, M=%d, T=%d*n", M, cfg.ChiSqRoundsFactor),
		Columns: []string{"accuracy", "n", "p_corrected", "p_raw", "true_sample_frac"},
	}
	for _, acc := range cfg.Accuracies {
		for _, n := range cfg.SetSizes {
			if uint64(n) >= M {
				continue
			}
			rng := cfg.rng(uint64(n)*31 + M)
			set, err := cfg.querySet(rng, M, n, false)
			if err != nil {
				return nil, err
			}
			tree, _, err := cfg.buildTreeFor(acc, n, M)
			if err != nil {
				return nil, err
			}
			q := queryFilterOf(tree, set)
			index := make(map[uint64]int, n)
			for i, x := range set {
				index[x] = i
			}
			rounds := cfg.ChiSqRoundsFactor * n

			// Corrected sampler: picks from the filter version's packed
			// positives, which are exactly uniform over them (see
			// core.Version.Exact); this is the headline p-value.
			exact := tree.VersionFor(q).Exact()
			counts := make([]int, n)
			inSet := 0
			for i := 0; i < rounds && exact.Len() > 0; i++ {
				if j, ok := index[exact.Select(rng.Intn(exact.Len()))]; ok {
					counts[j]++
					inSet++
				}
			}
			corrected, err := stats.ChiSquaredUniform(counts)
			if err != nil {
				return nil, err
			}

			// Raw BSTSample (batched through SampleN, which preserves the
			// per-path distribution, §5.3) for comparison: at the paper's
			// filter sizes the estimator noise makes it visibly
			// non-uniform (README's second paragraph has the numbers).
			rawCounts := make([]int, n)
			for done := 0; done < rounds; {
				want := rounds - done
				if want > 128 {
					want = 128
				}
				got, err := tree.SampleN(q, want, true, rng, nil)
				if err != nil {
					return nil, err
				}
				if len(got) == 0 {
					break
				}
				for _, x := range got {
					if j, ok := index[x]; ok {
						rawCounts[j]++
					}
				}
				done += len(got)
			}
			raw, err := stats.ChiSquaredUniform(rawCounts)
			if err != nil {
				return nil, err
			}
			tbl.Add(fmt.Sprintf("%.1f", acc), fmt.Sprint(n),
				fmt.Sprintf("%.4f", corrected.PValue),
				fmt.Sprintf("%.4f", raw.PValue),
				fmt.Sprintf("%.3f", float64(inSet)/float64(rounds)))
		}
	}
	return []*Table{tbl}, nil
}

// RunMeasuredAccuracy reproduces Table 6: measured sampling accuracy (the
// fraction of samples that are true elements of the query set) against the
// designed accuracy, for each namespace size at n = 10³.
func RunMeasuredAccuracy(cfg Config) ([]*Table, error) {
	n := closestSetSize(cfg, 1000)
	tbl := &Table{
		ID:      "measured-accuracy",
		Title:   fmt.Sprintf("Measured sampling accuracy (n=%d, uniform query sets)", n),
		Columns: []string{"accuracy", "M", "measured"},
	}
	for _, acc := range cfg.Accuracies {
		for _, M := range cfg.Namespaces {
			if uint64(n) >= M {
				continue
			}
			measured, err := MeasureAccuracy(cfg, acc, n, M)
			if err != nil {
				return nil, err
			}
			tbl.Add(fmt.Sprintf("%.1f", acc), fmt.Sprint(M), fmt.Sprintf("%.3f", measured))
		}
	}
	return []*Table{tbl}, nil
}

// MeasureAccuracy runs cfg.Rounds BST sampling rounds on a fresh uniform
// query set and returns the fraction of samples that belong to the true
// set — the paper's measured accuracy (§5.4, Table 6).
func MeasureAccuracy(cfg Config, acc float64, n int, M uint64) (float64, error) {
	rng := cfg.rng(uint64(n) ^ M ^ 0xACC)
	set, err := cfg.querySet(rng, M, n, false)
	if err != nil {
		return 0, err
	}
	tree, _, err := cfg.buildTreeFor(acc, n, M)
	if err != nil {
		return 0, err
	}
	q := queryFilterOf(tree, set)
	inSet := make(map[uint64]bool, n)
	for _, x := range set {
		inSet[x] = true
	}
	hits, total := 0, 0
	for i := 0; i < cfg.Rounds; i++ {
		x, err := tree.Sample(q, rng, nil)
		if err == core.ErrNoSample {
			continue
		}
		if err != nil {
			return 0, err
		}
		total++
		if inSet[x] {
			hits++
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("experiments: no successful samples")
	}
	return float64(hits) / float64(total), nil
}

func closestSetSize(cfg Config, want int) int {
	best := cfg.SetSizes[0]
	for _, n := range cfg.SetSizes {
		d1, d2 := n-want, best-want
		if d1 < 0 {
			d1 = -d1
		}
		if d2 < 0 {
			d2 = -d2
		}
		if d1 < d2 {
			best = n
		}
	}
	return best
}
