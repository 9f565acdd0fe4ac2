// Command bstbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	bstbench -exp fig3              # one experiment at reduced scale
//	bstbench -exp all -full         # everything at paper scale (hours!)
//	bstbench -exp tab5 -csv out/    # also write CSV files
//	bstbench -list                  # show available experiment ids
//
// Experiment ids follow the paper: fig3..fig15 are Figures 3–15, tab2..
// tab6 are Tables 2–6, and abl-* are the ablations of
// internal/experiments/ablation.go (README, "Package layout"). The served
// system is measured by the repository benchmark instead: go run ./bench.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/hashfam"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		full    = flag.Bool("full", false, "run at the paper's full scale (slow)")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		csvDir  = flag.String("csv", "", "directory to also write per-table CSV files into")
		seed    = flag.Uint64("seed", 1, "experiment seed")
		rounds  = flag.Int("rounds", 0, "override sampling rounds per cell")
		hash    = flag.String("hash", "", "override hash family, one of "+fmt.Sprint(hashfam.Kinds()))
		twScale = flag.Int("twitter-scale", 0, "override Twitter-crawl scale divisor")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}

	cfg := experiments.SmallConfig()
	if *full {
		cfg = experiments.PaperConfig()
	}
	cfg.Seed = *seed
	if *rounds > 0 {
		cfg.Rounds = *rounds
	}
	if *hash != "" {
		cfg.HashKind = hashfam.Kind(*hash)
		if _, err := hashfam.New(cfg.HashKind, 1024, cfg.K, 0); err != nil {
			fatalf("bad -hash: %v", err)
		}
	}
	if *twScale > 0 {
		cfg.TwitterScale = *twScale
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = experiments.ExperimentIDs()
	}
	registry := experiments.Registry()
	for _, id := range ids {
		runner, ok := registry[id]
		if !ok {
			fatalf("unknown experiment %q (use -list)", id)
		}
		start := time.Now()
		tables, err := runner(cfg)
		if err != nil {
			fatalf("%s: %v", id, err)
		}
		for _, tbl := range tables {
			if err := tbl.WriteText(os.Stdout); err != nil {
				fatalf("write: %v", err)
			}
			fmt.Println()
			if *csvDir != "" {
				if err := writeCSV(*csvDir, tbl); err != nil {
					fatalf("csv: %v", err)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
}

func writeCSV(dir string, tbl *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, tbl.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return tbl.WriteCSV(f)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bstbench: "+format+"\n", args...)
	os.Exit(1)
}
