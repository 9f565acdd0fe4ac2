package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// serverBin is the bstserved the smoke tests serve from, built once.
var serverBin string

// TestMain moves to the repository root, where `go run ./bench` runs and
// which every path of the benchmark is relative to.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var err error
	if serverBin, err = buildServer(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func TestPercentileArithmetic(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(append([]float64(nil), hundred...), c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %v, want 5", got)
	}
}

func TestSlicedPercentile(t *testing.T) {
	// Three slices of five values; the middle one had a bad spell.
	slices := [][]float64{{1, 2, 3, 4, 5}, {10, 20, 30, 40, 50}, {2, 3, 4, 5, 6}}
	v, per, n, ok := slicedPercentile(slices, 0.5, 5)
	if !ok || n != 15 || v != 4 || !reflect.DeepEqual(per, []float64{3, 30, 4}) {
		t.Errorf("every slice full: got %v %v %d %v, want the median 4 of the slice medians 3 30 4", v, per, n, ok)
	}
	// A slice below the floor: the window is pooled instead.
	v, per, n, ok = slicedPercentile(slices, 0.5, 6)
	if !ok || n != 15 || v != 5 || per != nil {
		t.Errorf("pooled: got %v %v %d %v, want the pooled median 5", v, per, n, ok)
	}
	// Too few even when pooled: the run is undersized.
	if _, _, n, ok := slicedPercentile(slices, 0.99, 16); ok || n != 15 {
		t.Errorf("undersized window accepted (n=%d ok=%v)", n, ok)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if got := spread([]float64{3, 1, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of three = %v, want 1", got)
	}
	if spread([]float64{7}) != 0 || spread(nil) != 0 {
		t.Error("fewer than two values have no spread")
	}
}

func TestSelfTime(t *testing.T) {
	if got := selfTime(100, 60); got != 40 {
		t.Errorf("selfTime(100, 60) = %v, want 40", got)
	}
	if got := selfTime(60, 100); got != 0 {
		t.Errorf("an inner span longer than the outer one leaves self time %v, want 0", got)
	}
	tr := newTracer()
	outer := tr.do("outer", -1, 0, 4, func() { time.Sleep(2 * time.Millisecond) })
	inner := tr.do("inner", outer, 0, 4, func() {})
	if tr.spans[inner].Parent != outer || tr.dur(outer) < 2e6 || tr.dur(inner) > tr.dur(outer) {
		t.Errorf("spans %+v", tr.spans)
	}
	if got := tr.min("outer"); got < 0.5e6 || got > tr.dur(outer) {
		t.Errorf("min(outer) = %v ns per unit, want a quarter of %v", got, tr.dur(outer))
	}
	if !math.IsNaN(tr.min("absent")) {
		t.Error("min of no spans should be NaN")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads {
		w = w.toy()
		a, b, c := streamHash(w, 1, clients, 500), streamHash(w, 1, clients, 500), streamHash(w, 2, clients, 500)
		if a != b {
			t.Errorf("%s: seed 1 hashed to %x and then to %x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 both hashed to %x", w.name, a)
		}
	}
}

// TestMixedStreamKeepsItsShadow replays a mixed stream against a plain map
// and checks that removes only ever name ids the stream added and still holds.
func TestMixedStreamKeepsItsShadow(t *testing.T) {
	w, _ := findWorkload("mixed_wal")
	w = w.toy()
	ds := generate(w, 3)
	s := newOpStream(w, ds, 3, 1, clients)
	held := map[[2]uint64]bool{}
	kinds := map[opKind]int{}
	for i := 0; i < 5000; i++ {
		o := s.next()
		kinds[o.kind]++
		if o.key%clients != 1 {
			t.Fatalf("client 1 was handed key %d of the other partition", o.key)
		}
		for _, x := range o.ids {
			id := [2]uint64{uint64(o.key), x}
			switch o.kind {
			case opAdd:
				if ds.truth[o.key].has(x) {
					t.Fatalf("add of id %d, which key %d already holds", x, o.key)
				}
				held[id] = true
			case opRemove:
				if !held[id] {
					t.Fatalf("remove of id %d, which this client never added to key %d", x, o.key)
				}
				delete(held, id)
			}
		}
		s.ack(o)
	}
	if kinds[opSample] < 3000 || kinds[opAdd] < 700 || kinds[opRemove] < 300 {
		t.Errorf("mix %v is far from 70/20/10", kinds)
	}
}

func TestParseIDs(t *testing.T) {
	got, err := parseIDs([]byte(`{"key":"k","requested":3,"returned":3,"ids":[7,0,12345678901]}`), nil)
	if err != nil || !reflect.DeepEqual(got, []uint64{7, 0, 12345678901}) {
		t.Errorf("got %v %v", got, err)
	}
	if got, err := parseIDs([]byte(`{"ids":[]}`), nil); err != nil || len(got) != 0 {
		t.Errorf("empty array: %v %v", got, err)
	}
	for _, bad := range []string{`{"error":"x"}`, `{"ids":[1,2`, `{"ids":[1,-2]}`, `{"ids":[,1]}`} {
		if _, err := parseIDs([]byte(bad), nil); err == nil {
			t.Errorf("%s parsed without error", bad)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100, 101}
	base := metricRow{Name: "ops_per_s", Value: 100, Slices: steady, Better: "higher", Bound: 0.10}
	at := func(v float64, slices []float64) metricRow {
		return metricRow{Name: "ops_per_s", Value: v, Slices: slices, Better: "higher", Bound: 0.10}
	}
	if got := verdict(base, at(95, steady)); got != "inside" {
		t.Errorf("5%% worse with bound 10%%: %q", got)
	}
	if got := verdict(base, at(85, steady)); got != "OUTSIDE" {
		t.Errorf("15%% worse with bound 10%%: %q", got)
	}
	if got := verdict(base, at(130, steady)); got != "inside" {
		t.Errorf("30%% better: %q", got)
	}
	if got := verdict(base, at(85, []float64{60, 85, 110, 70, 100, 85})); got != "unresolved" {
		t.Errorf("slices spreading wider than the bound: %q", got)
	}
	lower := metricRow{Name: "op_p50_us", Value: 100, Better: "lower", Bound: 0.10}
	if got := verdict(lower, metricRow{Value: 115}); got != "OUTSIDE" {
		t.Errorf("latency 15%% up: %q", got)
	}
	if got := verdict(metricRow{Name: "failed_share", Value: 0}, metricRow{}); got != "" {
		t.Errorf("an unguarded metric got the verdict %q", got)
	}

	dir := t.TempDir()
	write := func(name string, v float64) string {
		res := result{Workloads: []workloadResult{{Name: "w", Correct: true, Metrics: []metricRow{at(v, steady), {Name: "core.nodes_per_draw", Unit: "count", Value: 9}}}}}
		path := filepath.Join(dir, name)
		if err := res.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	ok, err := compareFiles(&out, write("a.json", 100), write("b.json", 80))
	if err != nil || ok || !strings.Contains(out.String(), "OUTSIDE") || !strings.Contains(out.String(), "identical") {
		t.Errorf("ok=%v err=%v\n%s", ok, err, out.String())
	}
}

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the binary's tables")

// TestBenchmarkJSONMatchesBinary keeps BENCHMARK.json and the tables the
// binary emits from in step — the file must be exactly what the tables
// render to (go test ./bench -update rewrites it) — and holds the tables to
// the contract's limits.
func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	type namedWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	file := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []namedWhy `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range workloads {
		file.Workloads = append(file.Workloads, namedWhy{w.name, w.why})
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") || seen[w.name] {
			t.Errorf("workload %q breaks the contract's limits", w.name)
		}
		seen[w.name] = true
	}
	setup, _ := defOf(endToEnd, "setup_s")
	if setup.unit != "s" || setup.better != "lower" {
		t.Error("the contract needs setup_s in seconds, lower is better")
	}
	for _, table := range []struct {
		defs    []metricDef
		bounded bool
	}{{endToEnd, true}, {perLayer, false}} {
		for _, d := range table.defs {
			m := metric{Name: d.name, Unit: d.unit, Better: d.better}
			if table.bounded {
				m.Bound = &d.bound
				if d.bound <= 0 || d.bound > 0.25 || d.bound > setup.bound {
					t.Errorf("%s: bound %v is outside (0, 0.25] or wider than setup_s's, which should be the widest", d.name, d.bound)
				}
				file.EndToEnd = append(file.EndToEnd, m)
			} else {
				file.PerLayer = append(file.PerLayer, m)
			}
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") || seen[d.name] {
				t.Errorf("%s: name, unit %q or direction %q breaks the contract's limits, or the name is used twice", d.name, d.unit, d.better)
			}
			seen[d.name] = true
		}
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 || defaultSeconds < 15 || defaultSeconds > 60 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics, %d s: outside the contract (2–8, ≤16, ≤128, ≤60) or below the issue's 15 s floor",
			len(workloads), len(endToEnd), len(perLayer), defaultSeconds)
	}

	want, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is not what the binary's tables render to; run go test ./bench -update\nwant:\n%s", want)
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the contract's 64 KiB", len(want))
	}
}

// TestSmoke serves all four workloads at toy sizes for one second each from
// the real binary, mixed_wal's reboot and snapshot comparison included, and
// wants every end-to-end metric measured and every check passed.
func TestSmoke(t *testing.T) {
	cfg := runConfig{seed: 1, window: time.Second, setups: 1}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runEndToEnd(w.toy(), cfg, serverBin)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			one := result{Workloads: []workloadResult{res}}
			line, err := one.contractLine(endToEnd)
			if err != nil {
				t.Error(err)
			}
			t.Log(line)
			for _, d := range endToEnd {
				if m, _ := res.metric(d.name); !(m.Value > 0) {
					t.Errorf("%s = %v; the contract wants metrics that are never 0", d.name, m.Value)
				}
			}
			if w.wal {
				if m, ok := res.metric("replay_writes_per_s"); !ok || !(m.Value > 0) {
					t.Errorf("replay_writes_per_s = %v after the reboot", m.Value)
				}
			}
		})
	}
}

// TestSmokeTraced runs the traced ledger of one workload at toy sizes and
// wants every per-layer metric of the contract reported.
func TestSmokeTraced(t *testing.T) {
	w, _ := findWorkload("mixed_wal")
	res, err := runTraced(w.toy(), runConfig{seed: 1, window: time.Second, setups: 1, trace: true}, serverBin)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("problems: %v", res.Problems)
	}
	one := result{Workloads: []workloadResult{res}}
	if _, err := one.contractLine(perLayer); err != nil {
		t.Error(err)
	}
	if _, err := os.Stat(filepath.Join(outDir, "trace-mixed_wal.json")); err != nil {
		t.Error(err)
	}
}

// streamHash folds the first n requests of every client's stream, each
// acknowledged at once, into one number: the fingerprint the determinism
// test compares across seeds.
func streamHash(w workload, seed int64, clients, n int) uint64 {
	ds := generate(w, seed)
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for c := 0; c < clients; c++ {
		s := newOpStream(w, ds, seed, c, clients)
		for i := 0; i < n; i++ {
			o := s.next()
			put(uint64(o.kind))
			put(uint64(o.key))
			for _, x := range o.ids {
				put(x)
			}
			s.ack(o)
		}
	}
	return h.Sum64()
}
