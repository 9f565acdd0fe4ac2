// Command bench is the repository's benchmark (BENCHMARK.json at the root
// names it). It builds cmd/bstserved from the commit under test, serves four
// workloads from it as a child process and measures what a client sees; a
// separate traced run times each layer's public functions from outside, on
// the same generated inputs. See README.md in this directory.
//
//	go run ./bench                          every workload, end to end
//	go run ./bench -trace 1                 every workload, the per-layer ledger
//	go run ./bench -workload batch_bin -seed 7
//	go run ./bench -compare a.json b.json   ratios of two result files
//
// It must be started from the repository root.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// defaultSeconds is the measured window, and BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all four)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", defaultSeconds, "length of the measured window; the driver passes BENCHMARK.json's run_seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer ledger, 0 the end-to-end measurement with tracing off")
		compare = flag.Bool("compare", false, "compare two result files given as arguments and exit")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files, got %d arguments", flag.NArg()))
		}
		inside, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !inside {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("usage: go run ./bench [-workload name] [-seed n] [-seconds n] [-trace 0|1]"))
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{w}
	}
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1, setups: 5}
	res, err := run(selected, cfg)
	if err != nil {
		fatal(err)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line, err := res.contractLine(defs)
	if err != nil {
		fatal(err)
	}
	fmt.Println(line)
	for _, r := range res.Workloads {
		if !r.Correct {
			fatal(fmt.Errorf("%s: %w", r.Name, errIncorrect))
		}
	}
}

// run measures the selected workloads one after the other, prints their
// tables and writes bench/out/result.json (trace.json for a traced run).
func run(selected []workload, cfg runConfig) (*result, error) {
	bin, err := buildServer()
	if err != nil {
		return nil, err
	}
	res := &result{Header: newHeader(cfg)}
	for _, w := range selected {
		var r workloadResult
		if cfg.trace {
			r, err = runTraced(w, cfg, bin)
		} else {
			r, err = runEndToEnd(w, cfg, bin)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		res.Header.ServerGOMAXPROCS = r.ServerGOMAXPROCS
		res.Workloads = append(res.Workloads, r)
	}
	res.printHeader(os.Stdout)
	for i := range res.Workloads {
		res.Workloads[i].print(os.Stdout)
	}
	file := "result.json"
	if cfg.trace {
		file = "trace.json"
	}
	return res, res.write(filepath.Join(outDir, file))
}

var errIncorrect = errors.New("the run is not correct")

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
