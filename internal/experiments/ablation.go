package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/baseline"
	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/hashfam"
)

// RunAblationThreshold sweeps the §5.6 empty-intersection threshold and
// reports its effect on sampling cost, reachability (fraction of rounds
// producing a sample) and reconstruction recall — the tradeoff the
// paper's §5.6 describes.
func RunAblationThreshold(cfg Config) ([]*Table, error) {
	M := smallestNamespace(cfg)
	n := closestSetSize(cfg, 1000)
	tbl := &Table{
		ID:      "abl-threshold",
		Title:   fmt.Sprintf("Empty-threshold ablation (M=%d, n=%d, acc=0.9)", M, n),
		Columns: []string{"threshold", "memberships/sample", "intersections/sample", "sample_success", "recon_recall"},
	}
	rng := cfg.rng(0xAB1)
	set, err := cfg.querySet(rng, M, n, false)
	if err != nil {
		return nil, err
	}
	plan, err := core.PlanTree(0.9, uint64(n), M, cfg.K, 0)
	if err != nil {
		return nil, err
	}
	for _, thr := range []float64{0.1, 0.5, 1, 2, 5} {
		treeCfg := plan.TreeConfig(cfg.HashKind, cfg.Seed)
		treeCfg.EmptyThreshold = thr
		tree, err := core.BuildTree(treeCfg)
		if err != nil {
			return nil, err
		}
		q := queryFilterOf(tree, set)
		var ops core.Ops
		success := 0
		for i := 0; i < cfg.Rounds; i++ {
			if _, err := tree.Sample(q, rng, &ops); err == nil {
				success++
			} else if err != core.ErrNoSample {
				return nil, err
			}
		}
		got, err := tree.Reconstruct(q, core.PruneByEstimate, nil)
		if err != nil {
			return nil, err
		}
		r := float64(cfg.Rounds)
		tbl.Add(fmt.Sprintf("%.1f", thr),
			fmt.Sprintf("%.1f", float64(ops.Memberships)/r),
			fmt.Sprintf("%.1f", float64(ops.Intersections)/r),
			fmt.Sprintf("%.3f", float64(success)/r),
			fmt.Sprintf("%.3f", recallOf(got, set)))
	}
	return []*Table{tbl}, nil
}

// RunAblationMultiSample compares r repeated BSTSample calls against one
// r-path SampleN pass (§5.3's claimed benefit).
func RunAblationMultiSample(cfg Config) ([]*Table, error) {
	M := smallestNamespace(cfg)
	n := closestSetSize(cfg, 1000)
	tbl := &Table{
		ID:      "abl-multisample",
		Title:   fmt.Sprintf("Multi-sample single pass vs repeated sampling (M=%d, n=%d, acc=0.9)", M, n),
		Columns: []string{"r", "repeated_intersections", "single_pass_intersections", "repeated_ms", "single_pass_ms"},
	}
	rng := cfg.rng(0xAB2)
	set, err := cfg.querySet(rng, M, n, false)
	if err != nil {
		return nil, err
	}
	tree, _, err := cfg.buildTreeFor(0.9, n, M)
	if err != nil {
		return nil, err
	}
	q := queryFilterOf(tree, set)
	for _, r := range []int{1, 10, 100, 1000} {
		var repOps core.Ops
		start := time.Now()
		for i := 0; i < r; i++ {
			if _, err := tree.Sample(q, rng, &repOps); err != nil && err != core.ErrNoSample {
				return nil, err
			}
		}
		repMS := msSince(start)

		var oneOps core.Ops
		start = time.Now()
		if _, err := tree.SampleN(q, r, true, rng, &oneOps); err != nil {
			return nil, err
		}
		oneMS := msSince(start)

		tbl.Add(fmt.Sprint(r), fmt.Sprint(repOps.Intersections),
			fmt.Sprint(oneOps.Intersections), repMS, oneMS)
	}
	return []*Table{tbl}, nil
}

// RunAblationBuild compares the leaf-up union construction used by
// BuildTree against the naive construction that re-inserts every element
// at every level, validating the §5.1 construction (a node's filter is the
// union of its children's). Both arms run at GOMAXPROCS 1, so the serial
// naive build meets a serial union build; GOMAXPROCS is restored
// afterwards.
func RunAblationBuild(cfg Config) ([]*Table, error) {
	M := smallestNamespace(cfg)
	n := closestSetSize(cfg, 1000)
	tbl := &Table{
		ID:      "abl-build",
		Title:   fmt.Sprintf("Tree construction: leaf-up unions vs per-level insertion (M=%d, GOMAXPROCS=1)", M),
		Columns: []string{"accuracy", "union_ms", "naive_ms", "speedup"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, acc := range cfg.Accuracies {
		plan, err := core.PlanTree(acc, uint64(n), M, cfg.K, 0)
		if err != nil {
			return nil, err
		}
		treeCfg := plan.TreeConfig(cfg.HashKind, cfg.Seed)

		start := time.Now()
		if _, err := core.BuildTree(treeCfg); err != nil {
			return nil, err
		}
		unionMS := float64(time.Since(start).Microseconds()) / 1000

		start = time.Now()
		naiveBuild(treeCfg)
		naiveMS := float64(time.Since(start).Microseconds()) / 1000

		tbl.Add(fmt.Sprintf("%.1f", acc), fmt.Sprintf("%.2f", unionMS),
			fmt.Sprintf("%.2f", naiveMS), fmt.Sprintf("%.2fx", naiveMS/unionMS))
	}
	return []*Table{tbl}, nil
}

// naiveBuild constructs the per-level filters by inserting every namespace
// element at every level — the strawman BuildTree avoids. It builds the
// same multiset of filters without the tree wiring (enough for a fair
// timing comparison of the hashing work).
func naiveBuild(cfg core.Config) {
	fam := hashfam.MustNew(cfg.HashKind, cfg.Bits, cfg.K, cfg.Seed)
	// Level l has 2^l filters; element x goes to filter x >> (log2(M)-l).
	for level := 0; level <= cfg.Depth; level++ {
		nodes := 1 << level
		filters := make([]*bloom.Filter, nodes)
		for i := range filters {
			filters[i] = bloom.New(fam)
		}
		per := (cfg.Namespace + uint64(nodes) - 1) / uint64(nodes)
		for x := uint64(0); x < cfg.Namespace; x++ {
			filters[x/per].Add(x)
		}
	}
}

// RunAblationHashInvert sweeps the query-set size (and hence filter
// density) to show where HashInvert's set-bit and unset-bit reconstruction
// variants win, and where the method loses to both BST and DA (the §7.3
// "HI-10K" effect).
func RunAblationHashInvert(cfg Config) ([]*Table, error) {
	M := smallestNamespace(cfg)
	tbl := &Table{
		ID:      "abl-hashinvert",
		Title:   fmt.Sprintf("HashInvert density sweep (M=%d, acc=0.8, simple hashes)", M),
		Columns: []string{"n", "fill_ratio", "variant", "memberships", "time_ms"},
	}
	cfg.HashKind = hashfam.KindSimple
	hi := baseline.HashInvert{Namespace: M}
	for _, n := range cfg.SetSizes {
		if uint64(n) >= M {
			continue
		}
		rng := cfg.rng(uint64(n) ^ 0xAB4)
		set, err := cfg.querySet(rng, M, n, false)
		if err != nil {
			return nil, err
		}
		tree, _, err := cfg.buildTreeFor(0.8, n, M)
		if err != nil {
			return nil, err
		}
		q := queryFilterOf(tree, set)
		variant := "set-bits"
		if q.FillRatio() > 0.5 {
			variant = "unset-bits"
		}
		var ops core.Ops
		start := time.Now()
		if _, err := hi.Reconstruct(q, &ops); err != nil {
			return nil, err
		}
		tbl.Add(fmt.Sprint(n), fmt.Sprintf("%.3f", q.FillRatio()), variant,
			fmt.Sprint(ops.Memberships), msSince(start))
	}
	return []*Table{tbl}, nil
}
