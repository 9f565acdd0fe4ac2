package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// RunAblationParallelBuild measures BuildTree's speedup from building its
// top levels concurrently, at GOMAXPROCS 1, 2, 4 and 8 against the 1 row
// (the serial recursion). An untimed build goes first, because a process's
// first tree pays for fresh heap pages that later ones reuse. GOMAXPROCS is
// restored afterwards.
func RunAblationParallelBuild(cfg Config) ([]*Table, error) {
	M := largestNamespace(cfg)
	n := closestSetSize(cfg, 1000)
	plan, err := core.PlanTree(0.9, uint64(n), M, cfg.K, 0)
	if err != nil {
		return nil, err
	}
	treeCfg := plan.TreeConfig(cfg.HashKind, cfg.Seed)
	tbl := &Table{
		ID:      "abl-parallel",
		Title:   fmt.Sprintf("Parallel tree construction (M=%d, m=%d, depth=%d, NumCPU=%d)", M, plan.Bits, plan.Depth, runtime.NumCPU()),
		Columns: []string{"gomaxprocs", "build_ms", "speedup"},
	}
	if _, err := core.BuildTree(treeCfg); err != nil {
		return nil, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var serialMS float64
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		start := time.Now()
		if _, err := core.BuildTree(treeCfg); err != nil {
			return nil, err
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		if procs == 1 {
			serialMS = ms
		}
		tbl.Add(fmt.Sprint(procs), fmt.Sprintf("%.2f", ms), fmt.Sprintf("%.2fx", serialMS/ms))
	}
	return []*Table{tbl}, nil
}

// RunAblationDynamicInsert measures the §5.2 claim that updating a
// Pruned-BloomSampleTree costs time proportional to the tree height: it
// inserts ids into pruned trees of increasing depth and reports the
// per-insert cost and tree growth.
func RunAblationDynamicInsert(cfg Config) ([]*Table, error) {
	M := largestNamespace(cfg)
	n := closestSetSize(cfg, 1000)
	tbl := &Table{
		ID:      "abl-dynamic",
		Title:   fmt.Sprintf("Dynamic insert cost vs tree depth (M=%d)", M),
		Columns: []string{"depth", "inserts", "ns_per_insert", "nodes_before", "nodes_after"},
	}
	rng := cfg.rng(0xD1A)
	seedIDs, err := workload.UniformSet(rng, M, n)
	if err != nil {
		return nil, err
	}
	newIDs, err := workload.UniformSet(rng, M, 5000)
	if err != nil {
		return nil, err
	}
	plan, err := core.PlanTree(0.9, uint64(n), M, cfg.K, 0)
	if err != nil {
		return nil, err
	}
	for _, depth := range []int{plan.Depth / 2, plan.Depth, plan.Depth + 2} {
		treeCfg := plan.TreeConfig(cfg.HashKind, cfg.Seed)
		treeCfg.Depth = depth
		tree, err := core.BuildPruned(treeCfg, seedIDs)
		if err != nil {
			return nil, err
		}
		before := tree.Nodes()
		start := time.Now()
		for _, id := range newIDs {
			if err := tree.Insert(id); err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(start)
		tbl.Add(fmt.Sprint(depth), fmt.Sprint(len(newIDs)),
			fmt.Sprint(elapsed.Nanoseconds()/int64(len(newIDs))),
			fmt.Sprint(before), fmt.Sprint(tree.Nodes()))
	}
	return []*Table{tbl}, nil
}
