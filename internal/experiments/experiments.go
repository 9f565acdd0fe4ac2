// Package experiments reproduces every table and figure of the paper's
// evaluation (§7 static namespaces, §8 low-occupancy namespaces). Each
// experiment is a function from a Config to one or more Tables whose rows
// mirror the series the paper plots; the bstbench command drives them.
// Numbers about the served system (throughput, write amplification,
// recovery, tracing overhead) are not measured here: bench/ measures them.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/hashfam"
	"repro/internal/workload"
)

// Config carries the knobs shared by all experiments. The zero value is
// not usable; start from SmallConfig or PaperConfig.
type Config struct {
	// Seed makes every experiment deterministic.
	Seed uint64
	// HashKind is the hash family (the paper's default is the simple
	// family for most experiments; the package default is the fast
	// multiply-fold family, which behaves equivalently and hashes
	// cheapest — fig7 compares them).
	HashKind hashfam.Kind
	// K is the number of hash functions (paper: 3).
	K int
	// Rounds is the number of sampling rounds per cell for
	// BloomSampleTree measurements (paper: 10,000).
	Rounds int
	// BaselineRounds is the number of rounds for the O(M)-per-sample
	// baselines, which would otherwise dominate wall-clock time.
	BaselineRounds int
	// Accuracies is the sweep of sampling accuracies (paper: 0.5–1.0).
	Accuracies []float64
	// SetSizes is the sweep of query-set cardinalities (paper: 100, 1K,
	// 10K, 50K).
	SetSizes []int
	// Namespaces is the sweep of namespace sizes (paper: 10⁵–10⁷).
	Namespaces []uint64
	// ClusterP is the clustered-generator parameter (paper: 10).
	ClusterP float64
	// Fractions is the namespace-fraction sweep for the §8 experiments.
	Fractions []float64
	// TwitterScale divides the paper's Twitter-crawl dimensions (1 =
	// paper scale: 2.2B namespace, 7.2M ids; 100 = 22M namespace, 72K
	// ids). Structure (256 leaves, fractions) is preserved.
	TwitterScale int
	// ChiSqRoundsFactor is T/n for the uniformity test (paper: 130).
	ChiSqRoundsFactor int
}

// SmallConfig returns a reduced-scale configuration that keeps every
// experiment under a few seconds, for tests and `go test -bench`.
func SmallConfig() Config {
	return Config{
		Seed:              1,
		HashKind:          hashfam.DefaultKind,
		K:                 3,
		Rounds:            300,
		BaselineRounds:    3,
		Accuracies:        []float64{0.5, 0.7, 0.9},
		SetSizes:          []int{100, 1000},
		Namespaces:        []uint64{100_000},
		ClusterP:          workload.DefaultClusterP,
		Fractions:         []float64{0.1, 0.3, 0.5, 0.9},
		TwitterScale:      1000,
		ChiSqRoundsFactor: 130,
	}
}

// PaperConfig returns the paper's full experiment scale. Running all
// experiments at this scale takes hours (the dictionary attack alone needs
// ~100 s per sample on the 2.2B namespace, §8.2).
func PaperConfig() Config {
	return Config{
		Seed:              1,
		HashKind:          hashfam.DefaultKind,
		K:                 3,
		Rounds:            10_000,
		BaselineRounds:    10,
		Accuracies:        []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
		SetSizes:          []int{100, 1_000, 10_000, 50_000},
		Namespaces:        []uint64{100_000, 1_000_000, 10_000_000},
		ClusterP:          workload.DefaultClusterP,
		Fractions:         []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		TwitterScale:      1,
		ChiSqRoundsFactor: 130,
	}
}

func (c Config) rng(salt uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(c.Seed*2654435761 + salt)))
}

// querySet generates a uniform or clustered query set.
func (c Config) querySet(rng *rand.Rand, M uint64, n int, clustered bool) ([]uint64, error) {
	if clustered {
		return workload.ClusteredSet(rng, M, n, c.ClusterP)
	}
	return workload.UniformSet(rng, M, n)
}

// Table is one reproduced table or figure: a titled grid of cells.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// Add appends a row; the cell count must match Columns.
func (t *Table) Add(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: table %s: %d cells for %d columns", t.ID, len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the table as CSV (cells contain no commas or quotes by
// construction, so no escaping is needed).
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Runner is one experiment: a function producing the tables of a paper
// figure or table at the given configuration.
type Runner func(Config) ([]*Table, error)

// Registry maps experiment ids (fig3..fig15, tab2..tab6, abl*) to runners.
// Where one runner serves figures at several namespace sizes the pairing
// is the paper's 10⁵/10⁶/10⁷ sweep: the first figure of a two-figure group
// runs at the middle namespace, the second at the largest (fig5/fig6 are
// the one pair numbered the other way round).
func Registry() map[string]Runner {
	return map[string]Runner{
		"fig3":            func(c Config) ([]*Table, error) { return RunSamplingOps(c, false) },
		"fig4":            func(c Config) ([]*Table, error) { return RunSamplingOps(c, true) },
		"fig5":            func(c Config) ([]*Table, error) { return RunSamplingTime(c, largestNamespace(c)) },
		"fig6":            func(c Config) ([]*Table, error) { return RunSamplingTime(c, middleNamespace(c)) },
		"fig7":            RunHashFamilies,
		"tab2":            func(c Config) ([]*Table, error) { return RunPlanTable(c, middleNamespace(c)) },
		"tab3":            func(c Config) ([]*Table, error) { return RunPlanTable(c, largestNamespace(c)) },
		"tab4":            RunCreationTime,
		"tab5":            RunChiSquared,
		"tab6":            RunMeasuredAccuracy,
		"fig8":            func(c Config) ([]*Table, error) { return RunReconstructionOps(c, smallestNamespace(c)) },
		"fig9":            func(c Config) ([]*Table, error) { return RunReconstructionOps(c, middleNamespace(c)) },
		"fig10":           func(c Config) ([]*Table, error) { return RunReconstructionOps(c, largestNamespace(c)) },
		"fig11":           func(c Config) ([]*Table, error) { return RunReconstructionTime(c, middleNamespace(c)) },
		"fig12":           func(c Config) ([]*Table, error) { return RunReconstructionTime(c, largestNamespace(c)) },
		"fig13":           func(c Config) ([]*Table, error) { return RunLowOccupancy(c, "time") },
		"fig14":           func(c Config) ([]*Table, error) { return RunLowOccupancy(c, "memory") },
		"fig15":           func(c Config) ([]*Table, error) { return RunLowOccupancy(c, "accuracy") },
		"abl-threshold":   RunAblationThreshold,
		"abl-parallel":    RunAblationParallelBuild,
		"abl-dynamic":     RunAblationDynamicInsert,
		"abl-multisample": RunAblationMultiSample,
		"abl-build":       RunAblationBuild,
		"abl-hashinvert":  RunAblationHashInvert,
	}
}

// ExperimentIDs returns the registry keys in presentation order.
func ExperimentIDs() []string {
	return []string{
		"fig3", "fig4", "fig5", "fig6", "fig7",
		"tab2", "tab3", "tab4", "tab5", "tab6",
		"fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15",
		"abl-threshold", "abl-multisample", "abl-build", "abl-hashinvert",
		"abl-parallel", "abl-dynamic",
	}
}

func smallestNamespace(c Config) uint64 {
	min := c.Namespaces[0]
	for _, m := range c.Namespaces {
		if m < min {
			min = m
		}
	}
	return min
}

func largestNamespace(c Config) uint64 {
	max := c.Namespaces[0]
	for _, m := range c.Namespaces {
		if m > max {
			max = m
		}
	}
	return max
}

func middleNamespace(c Config) uint64 {
	lo, hi := smallestNamespace(c), largestNamespace(c)
	for _, m := range c.Namespaces {
		if m != lo && m != hi {
			return m
		}
	}
	return hi
}

// buildTreeFor plans and builds a full BloomSampleTree for one (accuracy,
// n, M) cell.
func (c Config) buildTreeFor(acc float64, n int, M uint64) (*core.Tree, core.Plan, error) {
	plan, err := core.PlanTree(acc, uint64(n), M, c.K, 0)
	if err != nil {
		return nil, core.Plan{}, err
	}
	tree, err := core.BuildTree(plan.TreeConfig(c.HashKind, c.Seed))
	if err != nil {
		return nil, core.Plan{}, err
	}
	return tree, plan, nil
}

// queryFilterOf builds the query Bloom filter for a set with the tree's
// parameters.
func queryFilterOf(tree *core.Tree, set []uint64) *bloom.Filter {
	q := tree.NewQueryFilter()
	for _, x := range set {
		q.Add(x)
	}
	return q
}
