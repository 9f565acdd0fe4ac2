package experiments

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// tinyConfig keeps every experiment fast enough for the unit-test suite.
func tinyConfig() Config {
	c := SmallConfig()
	c.Rounds = 50
	c.BaselineRounds = 1
	c.Accuracies = []float64{0.7, 0.9}
	c.SetSizes = []int{100, 500}
	c.Namespaces = []uint64{20_000}
	c.Fractions = []float64{0.2, 0.6}
	c.TwitterScale = 4000
	c.ChiSqRoundsFactor = 20
	return c
}

func TestTableAddAndRender(t *testing.T) {
	tbl := &Table{ID: "t", Title: "demo", Columns: []string{"a", "b"}}
	tbl.Add("1", "2")
	tbl.Add("333", "4")
	var text, csv bytes.Buffer
	if err := tbl.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := tbl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "demo") || !strings.Contains(text.String(), "333") {
		t.Fatalf("text output wrong:\n%s", text.String())
	}
	if got := csv.String(); got != "a,b\n1,2\n333,4\n" {
		t.Fatalf("csv output wrong: %q", got)
	}
}

func TestTableAddPanicsOnArity(t *testing.T) {
	tbl := &Table{ID: "t", Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong arity")
		}
	}()
	tbl.Add("only-one")
}

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	reg := Registry()
	// The registry is the paper's list and nothing else: the same ids as
	// ExperimentIDs in both directions, each a figure, a table or an
	// ablation. Anything about the served system belongs to bench/.
	paperID := regexp.MustCompile(`^(fig([3-9]|1[0-5])|tab[2-6]|abl-[a-z]+)$`)
	listed := map[string]bool{}
	for _, id := range ExperimentIDs() {
		if _, ok := reg[id]; !ok {
			t.Errorf("experiment %s listed but not registered", id)
		}
		listed[id] = true
	}
	for id := range reg {
		if !listed[id] {
			t.Errorf("experiment %s registered but not listed", id)
		}
		if !paperID.MatchString(id) {
			t.Errorf("experiment %s is not a paper figure, table or ablation", id)
		}
	}
	// Every evaluation figure (3–15) and table (2–6) must be present.
	for fig := 3; fig <= 15; fig++ {
		if _, ok := reg["fig"+strconv.Itoa(fig)]; !ok {
			t.Errorf("missing runner for figure %d", fig)
		}
	}
	for tab := 2; tab <= 6; tab++ {
		if _, ok := reg["tab"+strconv.Itoa(tab)]; !ok {
			t.Errorf("missing runner for table %d", tab)
		}
	}
}

// Each figure and table runs at the namespace the paper gives it: of the
// 10⁵/10⁶/10⁷ sweep, Figures 6, 9, 11 and Table 2 at the middle, Figures
// 5, 10, 12 and Table 3 at the largest, Figure 8 at the smallest. Table
// ids embed the namespace they ran at.
func TestRegistryBindsPaperNamespaces(t *testing.T) {
	cfg := tinyConfig()
	cfg.Rounds = 5
	cfg.Namespaces = []uint64{10_000, 20_000, 40_000}
	want := map[string]string{
		"fig8": "M10000",
		"fig6": "M20000", "tab2": "M20000", "fig9": "M20000", "fig11": "M20000",
		"fig5": "M40000", "tab3": "M40000", "fig10": "M40000", "fig12": "M40000",
	}
	reg := Registry()
	for id, ns := range want {
		tables, err := reg[id](cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, tbl := range tables {
			if !strings.Contains(tbl.ID, ns) {
				t.Errorf("%s: table %s, want namespace %s", id, tbl.ID, ns)
			}
		}
	}
}

// Every registered experiment must run to completion at tiny scale and
// produce at least one non-empty table.
func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	cfg := tinyConfig()
	for _, id := range ExperimentIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tables, err := Registry()[id](cfg)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", id)
			}
			for _, tbl := range tables {
				if len(tbl.Rows) == 0 {
					t.Errorf("%s: table %s has no rows", id, tbl.ID)
				}
				if len(tbl.Columns) == 0 {
					t.Errorf("%s: table %s has no columns", id, tbl.ID)
				}
				var buf bytes.Buffer
				if err := tbl.WriteText(&buf); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestSamplingOpsShape(t *testing.T) {
	// The defining shape of Figures 3–4: BST memberships far below DA's M.
	cfg := tinyConfig()
	tables, err := RunSamplingOps(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	M := float64(cfg.Namespaces[0])
	var bstRows int
	for _, row := range tbl.Rows {
		if row[0] != "BST" {
			continue
		}
		bstRows++
		mem, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		if mem >= M/2 {
			t.Errorf("BST memberships %v not far below M=%v (row %v)", mem, M, row)
		}
	}
	if bstRows == 0 {
		t.Fatal("no BST rows")
	}
}

func TestMeasuredAccuracyTracksDesign(t *testing.T) {
	cfg := tinyConfig()
	cfg.Rounds = 400
	for _, acc := range []float64{0.7, 0.9} {
		got, err := MeasureAccuracy(cfg, acc, 500, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		// Generous tolerance at tiny scale; the sign of the effect (higher
		// design accuracy → higher measured) is checked below.
		if got < acc-0.25 {
			t.Errorf("acc %.1f: measured %.3f too low", acc, got)
		}
	}
	lo, err := MeasureAccuracy(cfg, 0.55, 500, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := MeasureAccuracy(cfg, 0.95, 500, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if hi <= lo-0.05 {
		t.Errorf("measured accuracy not increasing: %.3f (0.55) vs %.3f (0.95)", lo, hi)
	}
}

// TestLowOccupancyMemoryShrinksWithFraction holds Figure 14's shape on the
// paper's measure, dense_MB (every node m/8 bytes): the tree at fraction 0.1
// is below the tree at 0.9. What the tree holds, memory_MB, is below that
// measure at both: its sparse nodes hold their set positions.
func TestLowOccupancyMemoryShrinksWithFraction(t *testing.T) {
	cfg := tinyConfig()
	cfg.Fractions = []float64{0.1, 0.9}
	tables, err := RunLowOccupancy(cfg, "memory")
	if err != nil {
		t.Fatal(err)
	}
	held, dense := map[string]float64{}, map[string]float64{}
	for _, row := range tables[0].Rows {
		if row[1] != "uniform" {
			continue
		}
		for col, into := range map[int]map[string]float64{2: held, 5: dense} {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				t.Fatal(err)
			}
			into[row[0]] = v
		}
	}
	if dense["0.10"] <= 0 || dense["0.90"] <= 0 || held["0.10"] <= 0 || held["0.90"] <= 0 {
		t.Fatalf("missing rows: %v", tables[0].Rows)
	}
	if dense["0.10"] >= dense["0.90"] {
		t.Errorf("dense memory at fraction 0.1 (%.3f MB) not below fraction 0.9 (%.3f MB)", dense["0.10"], dense["0.90"])
	}
	for _, f := range []string{"0.10", "0.90"} {
		if held[f] >= dense[f] {
			t.Errorf("fraction %s: the tree holds %.3f MB, not below its dense %.3f MB", f, held[f], dense[f])
		}
	}
	t.Logf("held %.3f → %.3f MB, dense %.3f → %.3f MB", held["0.10"], held["0.90"], dense["0.10"], dense["0.90"])
}

func TestLowOccupancyUnknownMetric(t *testing.T) {
	if _, err := RunLowOccupancy(tinyConfig(), "nope"); err == nil {
		t.Fatal("unknown metric accepted")
	}
}

func TestPaperConfigDimensions(t *testing.T) {
	c := PaperConfig()
	if c.Rounds != 10000 || c.ChiSqRoundsFactor != 130 || c.TwitterScale != 1 {
		t.Fatalf("paper config drifted: %+v", c)
	}
	if len(c.Accuracies) != 6 || len(c.SetSizes) != 4 || len(c.Namespaces) != 3 {
		t.Fatalf("paper sweeps drifted: %+v", c)
	}
}

func TestNamespaceSelectors(t *testing.T) {
	c := Config{Namespaces: []uint64{5, 1, 9}}
	if smallestNamespace(c) != 1 || largestNamespace(c) != 9 || middleNamespace(c) != 5 {
		t.Fatal("selectors wrong")
	}
	single := Config{Namespaces: []uint64{7}}
	if smallestNamespace(single) != 7 || largestNamespace(single) != 7 || middleNamespace(single) != 7 {
		t.Fatal("single-namespace selectors wrong")
	}
}
