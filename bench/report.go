package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// metricDef names one metric of the contract. BENCHMARK.json repeats these
// tables; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share of the parent's median it may worsen by
}

// endToEnd is what a client of the served system sees, and every workload
// reports all of it. The contract wants one key set for all workloads and no
// metric that reads 0, so the issue's per-operation names are folded into
// operation-neutral ones (op_p50_us, ids_per_s, accuracy) and its workload-only
// metrics are reported as extras; bench/README.md has the mapping, and says
// why the bounds are as wide as they are and why the p99 is an extra.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"ids_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"accuracy", "share", "higher", 0.02},
}

func defOf(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// metricRow is one measured value with what is needed to read it alone: its
// unit, how many observations stand behind it, and, where the window was cut
// into slices, each slice's value, from which -compare takes the spread.
type metricRow struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Samples int       `json:"samples"`
	Slices  []float64 `json:"slices,omitempty"`
	Better  string    `json:"better,omitempty"`
	Bound   float64   `json:"bound,omitempty"` // set on the guarded end-to-end metrics only
}

type workloadResult struct {
	Name             string      `json:"name"`
	Why              string      `json:"why"`
	ServerCmd        string      `json:"server_command,omitempty"`
	ServerGOMAXPROCS int         `json:"server_gomaxprocs,omitempty"`
	Correct          bool        `json:"correct"`
	Attempted        int         `json:"attempted"`
	Failed           int         `json:"failed"`
	Problems         []string    `json:"problems,omitempty"`
	Metrics          []metricRow `json:"metrics"`
	Ledger           []ledgerRow `json:"ledger,omitempty"` // traced run: the table that sums to a request
}

func (r *workloadResult) add(name, unit string, value float64, samples int, slices []float64) {
	row := metricRow{Name: name, Unit: unit, Value: value, Samples: samples, Slices: slices}
	if d, ok := defOf(endToEnd, name); ok {
		row.Better, row.Bound = d.better, d.bound
	} else if d, ok := defOf(perLayer, name); ok {
		row.Better = d.better
	}
	r.Metrics = append(r.Metrics, row)
}

func (r *workloadResult) metric(name string) (metricRow, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metricRow{}, false
}

// problem records why the run is not correct; the first few are kept.
func (r *workloadResult) problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 8 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

type header struct {
	NProc               int     `json:"nproc"`
	GeneratorGOMAXPROCS int     `json:"gomaxprocs_generator"`
	ServerGOMAXPROCS    int     `json:"gomaxprocs_server,omitempty"`
	GoVersion           string  `json:"go_version"`
	GitCommit           string  `json:"git_commit"`
	Seed                int64   `json:"seed"`
	Traced              bool    `json:"traced"`
	Clients             int     `json:"clients"`
	WindowS             float64 `json:"window_s"`
	WarmupS             float64 `json:"warmup_s"`
	Slices              int     `json:"slices"`
	Setups              int     `json:"setups"`
}

type result struct {
	Header    header           `json:"header"`
	Workloads []workloadResult `json:"workloads"`
}

func newHeader(cfg runConfig) header {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return header{
		NProc: runtime.NumCPU(), GeneratorGOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitCommit: commit, Seed: cfg.seed, Traced: cfg.trace,
		Clients: clients, WindowS: cfg.window.Seconds(), WarmupS: cfg.warmup().Seconds(),
		Slices: windowSlices, Setups: cfg.setups,
	}
}

func (res *result) printHeader(w io.Writer) {
	h := res.Header
	fmt.Fprintf(w, "# nproc=%d GOMAXPROCS generator=%d server=%d %s commit=%s seed=%d traced=%v\n",
		h.NProc, h.GeneratorGOMAXPROCS, h.ServerGOMAXPROCS, h.GoVersion, h.GitCommit, h.Seed, h.Traced)
	fmt.Fprintf(w, "# %d closed-loop clients, warm-up %.1fs, window %.1fs in %d slices, %d set-ups per run\n",
		h.Clients, h.WarmupS, h.WindowS, h.Slices, h.Setups)
}

// print writes one workload's table: every metric by name with its unit,
// sample count and workload, guarded metrics marked with their bound.
func (r *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "\n## %s — %s\n", r.Name, r.Why)
	if r.ServerCmd != "" {
		fmt.Fprintf(w, "# server: %s\n", r.ServerCmd)
	}
	fmt.Fprintf(w, "%-18s %-44s %16s %-6s %9s  %s\n", "workload", "metric", "value", "unit", "samples", "guard")
	for _, m := range r.Metrics {
		guard := ""
		if m.Bound > 0 {
			guard = fmt.Sprintf("%s is better, bound %.2f", m.Better, m.Bound)
		}
		fmt.Fprintf(w, "%-18s %-44s %16.4f %-6s %9d  %s\n", r.Name, m.Name, m.Value, m.Unit, m.Samples, guard)
	}
	if len(r.Ledger) > 0 {
		loop, _ := r.metric("server.loopback_ns_per_req")
		fmt.Fprintf(w, "%-18s one request over loopback, self time per layer (median of %d paired repetitions):\n", r.Name, reps)
		sum := 0.0
		for _, row := range r.Ledger {
			fmt.Fprintf(w, "%-18s   %-42s %16.0f ns     %5.1f%%\n", r.Name, row.Layer, row.SelfNS, 100*row.Share)
			sum += row.SelfNS
		}
		fmt.Fprintf(w, "%-18s   %-42s %16.0f ns     fastest loopback request %.0f ns\n", r.Name, "sum of self times", sum, loop.Value)
	}
	fmt.Fprintf(w, "%-18s correct=%v attempted=%d failed=%d\n", r.Name, r.Correct, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "%-18s PROBLEM: %s\n", r.Name, p)
	}
}

func (res *result) write(path string) error {
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// contractLine is the last line of standard output: the JSON object the
// driver reads. With one workload the metric names are the contract's; with
// several they are prefixed "<workload>." so that none is lost.
func (res *result) contractLine(defs []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range res.Workloads {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, d := range defs {
			m, ok := r.metric(d.name)
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				return "", fmt.Errorf("%s: metric %s was not measured", r.Name, d.name)
			}
			name := d.name
			if len(res.Workloads) > 1 {
				name = r.Name + "." + d.name
			}
			out.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(out)
	return string(line), err
}
