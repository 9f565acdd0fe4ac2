// Command bstbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	bstbench -exp fig3              # one experiment at reduced scale
//	bstbench -exp all -full         # everything at paper scale (hours!)
//	bstbench -exp tab5 -csv out/    # also write CSV files
//	bstbench -exp concurrency       # sampled-per-second vs goroutine count
//	bstbench -exp serving -json BENCH_serving.json   # HTTP serving-layer load test
//	bstbench -exp obs -json BENCH_obs.json           # observability overhead: tracing+metrics on vs off
//	bstbench -exp hash -json BENCH_hash.json         # hash family × k × batch sweep
//	bstbench -list                  # show available experiment ids
//
// Experiment ids follow the paper: fig3..fig15 are Figures 3–15, tab2..
// tab6 are Tables 2–6, and abl-* are the ablations of
// internal/experiments/ablation.go (README, "Package layout"). The extra
// "concurrency" experiment measures SetDB parallel-sampling throughput
// as the goroutine count grows — the scaling unlocked by the lock-free
// read path — and "serving" drives the bstserved HTTP layer in-process
// with a read/write client mix over real loopback connections.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/hashfam"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		full      = flag.Bool("full", false, "run at the paper's full scale (slow)")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		csvDir    = flag.String("csv", "", "directory to also write per-table CSV files into")
		jsonPath  = flag.String("json", "", "file to write all results into as machine-readable JSON (e.g. BENCH_concurrency.json)")
		seed      = flag.Uint64("seed", 1, "experiment seed")
		rounds    = flag.Int("rounds", 0, "override sampling rounds per cell")
		hash      = flag.String("hash", "", "override hash family (fast|simple|murmur3|md5|fnv)")
		twScale   = flag.Int("twitter-scale", 0, "override Twitter-crawl scale divisor")
		writeFrac = flag.Float64("writefrac", 0, "write fraction for the concurrency/serving experiments' read/write mix (0..1)")
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
	if *writeFrac < 0 || *writeFrac > 1 {
		fatalf("bad -writefrac %v: want 0..1", *writeFrac)
	}
	cfg.WriteFrac = *writeFrac

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = experiments.ExperimentIDs()
	}
	registry := experiments.Registry()
	report := &jsonReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Seed:        cfg.Seed,
		Full:        *full,
		WriteFrac:   cfg.WriteFrac,
	}
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
		je := jsonExperiment{ID: id}
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
			je.Tables = append(je.Tables, jsonTable{
				ID: tbl.ID, Title: tbl.Title, Columns: tbl.Columns, Rows: tbl.Rows,
			})
		}
		// One-line human summary where an experiment defines one (the
		// writeamp and hash sweeps), so the headline is checkable without
		// tooling.
		if line, ok := experiments.WriteAmpSummary(tables); ok {
			fmt.Println(line)
			fmt.Println()
		}
		if line, ok := experiments.HashSummary(tables); ok {
			fmt.Println(line)
			fmt.Println()
		}
		if line, ok := experiments.ServingSummary(tables); ok {
			fmt.Println(line)
			fmt.Println()
		}
		if line, ok := experiments.ObsSummary(tables); ok {
			fmt.Println(line)
			fmt.Println()
		}
		if line, ok := experiments.BackendSummary(tables); ok {
			fmt.Println(line)
			fmt.Println()
		}
		if line, ok := experiments.RecoverySummary(tables); ok {
			fmt.Println(line)
			fmt.Println()
		}
		je.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
		report.Experiments = append(report.Experiments, je)
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, report); err != nil {
			fatalf("json: %v", err)
		}
	}
}

// jsonReport is the machine-readable form of one bstbench run, written
// by -json so performance trajectories can be tracked across commits.
type jsonReport struct {
	GeneratedAt string           `json:"generated_at"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	Seed        uint64           `json:"seed"`
	Full        bool             `json:"full"`
	WriteFrac   float64          `json:"writefrac"`
	Experiments []jsonExperiment `json:"experiments"`
}

type jsonExperiment struct {
	ID        string      `json:"id"`
	ElapsedMS float64     `json:"elapsed_ms"`
	Tables    []jsonTable `json:"tables"`
}

type jsonTable struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

func writeJSON(path string, report *jsonReport) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	// Create missing parent directories (a trajectory path like
	// bench/out/BENCH_serving.json should just work), and make the
	// failure actionable when the path itself is unwritable.
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("creating parent directory for -json %s: %w", path, err)
		}
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing -json output: %w", err)
	}
	return nil
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
