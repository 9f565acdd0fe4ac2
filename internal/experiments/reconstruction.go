package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/hashfam"
)

// RunReconstructionOps reproduces Figures 8–10: the number of
// intersections and membership queries to reconstruct uniform and
// clustered query sets at each accuracy ("precision" in the figures), for
// BST, HashInvert and DictionaryAttack, at one namespace size per figure.
// HashInvert requires the invertible Simple family, so this experiment
// uses it for all methods, as the paper does when comparing against HI.
func RunReconstructionOps(cfg Config, M uint64) ([]*Table, error) {
	cfg.HashKind = hashfam.KindSimple
	var tables []*Table
	for _, clustered := range []bool{false, true} {
		kind := "uniform"
		if clustered {
			kind = "clustered"
		}
		tbl := &Table{
			ID:      fmt.Sprintf("recon-ops-M%d-%s", M, kind),
			Title:   fmt.Sprintf("Reconstruction ops, %s query sets, M=%d", kind, M),
			Columns: []string{"method", "n", "accuracy", "intersections", "memberships", "recall"},
		}
		hi := baseline.HashInvert{Namespace: M}
		for _, n := range cfg.SetSizes {
			if uint64(n) >= M {
				continue
			}
			rng := cfg.rng(uint64(n) ^ M ^ 0x8EC)
			set, err := cfg.querySet(rng, M, n, clustered)
			if err != nil {
				return nil, err
			}
			for _, acc := range cfg.Accuracies {
				tree, _, err := cfg.buildTreeFor(acc, n, M)
				if err != nil {
					return nil, err
				}
				q := queryFilterOf(tree, set)

				var bstOps core.Ops
				got, err := tree.Reconstruct(q, core.PruneByEstimate, &bstOps)
				if err != nil {
					return nil, err
				}
				tbl.Add("BST", fmt.Sprint(n), fmt.Sprintf("%.1f", acc),
					fmt.Sprint(bstOps.Intersections), fmt.Sprint(bstOps.Memberships),
					fmt.Sprintf("%.3f", recallOf(got, set)))

				var hiOps core.Ops
				hiGot, err := hi.Reconstruct(q, &hiOps)
				if err != nil {
					return nil, err
				}
				tbl.Add("HI", fmt.Sprint(n), fmt.Sprintf("%.1f", acc),
					"0", fmt.Sprint(hiOps.Memberships),
					fmt.Sprintf("%.3f", recallOf(hiGot, set)))
			}
		}
		tbl.Add("DA", "-", "-", "0", fmt.Sprint(M), "1.000")
		tables = append(tables, tbl)
	}
	return tables, nil
}

// RunReconstructionTime reproduces Figures 11 (M = 10⁶) and 12 (M = 10⁷):
// wall-clock time to reconstruct query sets of the smallest and a larger
// configured size, for BST, HashInvert and DictionaryAttack, over uniform
// and clustered query sets.
func RunReconstructionTime(cfg Config, M uint64) ([]*Table, error) {
	cfg.HashKind = hashfam.KindSimple
	sizes := []int{cfg.SetSizes[0]}
	if len(cfg.SetSizes) > 1 {
		sizes = append(sizes, cfg.SetSizes[len(cfg.SetSizes)-1])
	}
	var tables []*Table
	for _, clustered := range []bool{false, true} {
		kind := "uniform"
		if clustered {
			kind = "clustered"
		}
		tbl := &Table{
			ID:      fmt.Sprintf("recon-time-M%d-%s", M, kind),
			Title:   fmt.Sprintf("Reconstruction time, %s query sets, M=%d", kind, M),
			Columns: []string{"method", "n", "accuracy", "time_ms"},
		}
		hi := baseline.HashInvert{Namespace: M}
		da := baseline.DictionaryAttack{Namespace: M}
		for _, n := range sizes {
			if uint64(n) >= M {
				continue
			}
			rng := cfg.rng(uint64(n) ^ M ^ 0x8EC7)
			set, err := cfg.querySet(rng, M, n, clustered)
			if err != nil {
				return nil, err
			}
			for _, acc := range cfg.Accuracies {
				tree, _, err := cfg.buildTreeFor(acc, n, M)
				if err != nil {
					return nil, err
				}
				q := queryFilterOf(tree, set)

				start := time.Now()
				if _, err := tree.Reconstruct(q, core.PruneByEstimate, nil); err != nil {
					return nil, err
				}
				tbl.Add("BST", fmt.Sprint(n), fmt.Sprintf("%.1f", acc), msSince(start))

				start = time.Now()
				if _, err := hi.Reconstruct(q, nil); err != nil {
					return nil, err
				}
				tbl.Add("HI", fmt.Sprint(n), fmt.Sprintf("%.1f", acc), msSince(start))

				if acc == cfg.Accuracies[0] {
					start = time.Now()
					da.Reconstruct(q, nil)
					tbl.Add("DA", fmt.Sprint(n), "-", msSince(start))
				}
			}
		}
		tables = append(tables, tbl)
	}
	return tables, nil
}

func msSince(start time.Time) string {
	return fmt.Sprintf("%.3f", float64(time.Since(start).Microseconds())/1000)
}

// recallOf returns the fraction of the true set present in the
// reconstruction (the reconstruction may also contain false positives;
// those are measured by the accuracy experiments).
func recallOf(got, truth []uint64) float64 {
	if len(truth) == 0 {
		return 1
	}
	in := make(map[uint64]bool, len(got))
	for _, x := range got {
		in[x] = true
	}
	hits := 0
	for _, x := range truth {
		if in[x] {
			hits++
		}
	}
	return float64(hits) / float64(len(truth))
}
