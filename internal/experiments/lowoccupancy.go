package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// RunLowOccupancy reproduces the §8 experiments over the synthetic Twitter
// crawl: Figure 13 (metric "time": average sampling time vs namespace
// fraction), Figure 14 ("memory": Pruned-BloomSampleTree size vs
// fraction) and Figure 15 ("accuracy": measured sampling accuracy vs
// fraction), each with uniformly and clusteredly selected leaf ranges. The
// crawl dimensions are the paper's divided by cfg.TwitterScale; the
// 256-leaf structure and the desired accuracy of 0.8 are preserved.
//
// Figure 14's memory_MB is what the tree holds (Tree.MemoryBytes): a node
// with fewer set bits than 2·m/64 holds their positions, so it follows the
// occupied ids more than the nodes. dense_MB is the paper's measure, the
// nodes at m/8 bytes each, which grows with the fraction as its Figure 14
// does.
func RunLowOccupancy(cfg Config, metric string) ([]*Table, error) {
	switch metric {
	case "time", "memory", "accuracy":
	default:
		return nil, fmt.Errorf("experiments: unknown low-occupancy metric %q", metric)
	}
	scale := cfg.TwitterScale
	if scale < 1 {
		scale = 1
	}
	M := workload.TwitterNamespace / uint64(scale)
	population := workload.TwitterPopulation / scale
	hashtags := 200
	minTag := population / 7200
	if minTag < 10 {
		minTag = 10
	}

	var columns []string
	switch metric {
	case "time":
		columns = []string{"fraction", "namespace_kind", "time_ms/sample"}
	case "memory":
		columns = []string{"fraction", "namespace_kind", "memory_MB", "nodes", "full_tree_MB", "dense_MB"}
	case "accuracy":
		columns = []string{"fraction", "namespace_kind", "measured_accuracy"}
	}
	tbl := &Table{
		ID:      fmt.Sprintf("lowocc-%s", metric),
		Title:   fmt.Sprintf("Low-occupancy namespace: %s vs fraction (M=%d, pop=%d, acc=0.8)", metric, M, population),
		Columns: columns,
	}

	const designAccuracy = 0.8
	for _, fraction := range cfg.Fractions {
		for _, clusteredNS := range []bool{false, true} {
			kind := "uniform"
			if clusteredNS {
				kind = "clustered"
			}
			rng := cfg.rng(uint64(fraction*1000) ^ uint64(len(kind)))

			var leafIdx []int
			var err error
			if clusteredNS {
				leafIdx, err = workload.SelectLeavesClustered(rng, workload.NamespaceLeaves, fraction, cfg.ClusterP)
			} else {
				leafIdx, err = workload.SelectLeavesUniform(rng, workload.NamespaceLeaves, fraction)
			}
			if err != nil {
				return nil, err
			}
			ns, err := workload.PopulateNamespace(rng, M, workload.NamespaceLeaves, leafIdx, population)
			if err != nil {
				return nil, err
			}
			crawl, err := workload.SynthesizeCrawl(rng, ns, workload.CrawlConfig{
				M: M, Population: population, Hashtags: hashtags,
				MinTagSize: minTag,
			})
			if err != nil {
				return nil, err
			}

			// Plan for the design accuracy against a typical audience size
			// and build the Pruned-BloomSampleTree over the occupied ids.
			designN := uint64(minTag * 10)
			plan, err := core.PlanTree(designAccuracy, designN, M, cfg.K, 0)
			if err != nil {
				return nil, err
			}
			tree, err := core.BuildPruned(plan.TreeConfig(cfg.HashKind, cfg.Seed), ns.IDs)
			if err != nil {
				return nil, err
			}

			switch metric {
			case "memory":
				fullNodes := uint64(1)<<(plan.Depth+1) - 1
				perNode := (plan.Bits + 63) / 64 * 8
				tbl.Add(fmt.Sprintf("%.2f", fraction), kind,
					fmt.Sprintf("%.3f", float64(tree.MemoryBytes())/(1<<20)),
					fmt.Sprint(tree.Nodes()),
					fmt.Sprintf("%.3f", float64(fullNodes*perNode)/(1<<20)),
					fmt.Sprintf("%.3f", float64(tree.Nodes()*perNode)/(1<<20)))
			case "time":
				rounds := cfg.Rounds
				if rounds > 1000 {
					rounds = 1000 // the paper uses 1000 rounds here (§8.1)
				}
				start := time.Now()
				for i := 0; i < rounds; i++ {
					tag := crawl.Tags[rng.Intn(len(crawl.Tags))]
					q := queryFilterOf(tree, tag)
					if _, err := tree.Sample(q, rng, nil); err != nil && err != core.ErrNoSample {
						return nil, err
					}
				}
				// Query-filter construction is shared setup in the paper's
				// measurement; report pure sampling by subtracting a
				// fill-only pass.
				elapsed := time.Since(start)
				start = time.Now()
				for i := 0; i < rounds; i++ {
					tag := crawl.Tags[rng.Intn(len(crawl.Tags))]
					_ = queryFilterOf(tree, tag)
				}
				fill := time.Since(start)
				net := elapsed - fill
				if net < 0 {
					net = 0
				}
				tbl.Add(fmt.Sprintf("%.2f", fraction), kind,
					fmt.Sprintf("%.4f", float64(net.Microseconds())/1000/float64(rounds)))
			case "accuracy":
				hits, total := 0, 0
				rounds := cfg.Rounds
				if rounds > 500 {
					rounds = 500
				}
				for i := 0; i < rounds; i++ {
					tag := crawl.Tags[rng.Intn(len(crawl.Tags))]
					q := queryFilterOf(tree, tag)
					x, err := tree.Sample(q, rng, nil)
					if err == core.ErrNoSample {
						continue
					}
					if err != nil {
						return nil, err
					}
					total++
					if containsSorted(tag, x) {
						hits++
					}
				}
				measured := 0.0
				if total > 0 {
					measured = float64(hits) / float64(total)
				}
				tbl.Add(fmt.Sprintf("%.2f", fraction), kind, fmt.Sprintf("%.3f", measured))
			}
		}
	}
	return []*Table{tbl}, nil
}

// containsSorted reports whether x occurs in the ascending slice xs.
func containsSorted(xs []uint64, x uint64) bool {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case xs[mid] < x:
			lo = mid + 1
		case xs[mid] > x:
			hi = mid
		default:
			return true
		}
	}
	return false
}
