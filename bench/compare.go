package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// verdict judges one guarded metric of b against the same metric of a, its
// base. It is "unresolved" when the slices of either input spread wider than
// the bound — a move that small cannot be told from the window's own noise —
// "OUTSIDE" when b is worse than a by more than the bound, else "inside".
func verdict(a, b metricRow) string {
	if a.Bound <= 0 {
		return ""
	}
	if max(spread(a.Slices), spread(b.Slices)) > a.Bound {
		return "unresolved"
	}
	worse := (b.Value - a.Value) / a.Value
	if a.Better == "higher" {
		worse = -worse
	}
	if worse > a.Bound {
		return "OUTSIDE"
	}
	return "inside"
}

// exactCount reports whether m is one of core.Ops' counts, which a fixed rng
// seed makes repeat exactly; allocation and fsync counts are averages and
// do not.
func exactCount(m metricRow) bool { return m.Unit == "count" && strings.HasPrefix(m.Name, "core.") }

// compareFiles prints, per workload and metric, the ratio of b to its base a
// and, for the guarded metrics, where the move sits against the recorded
// bound. The counts of core.Ops are compared for equality: they are the
// paper's cost unit and repeat exactly. It reports whether no guarded metric is OUTSIDE and no
// request failed on either side.
func compareFiles(w io.Writer, aPath, bPath string) (bool, error) {
	a, err := readResult(aPath)
	if err != nil {
		return false, err
	}
	b, err := readResult(bPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "# base %s (commit %s, seed %d)\n# new  %s (commit %s, seed %d)\n",
		aPath, a.Header.GitCommit, a.Header.Seed, bPath, b.Header.GitCommit, b.Header.Seed)
	fmt.Fprintf(w, "%-18s %-44s %16s %16s %8s  %s\n", "workload", "metric", "base", "new", "new/base", "against the bound")
	ok := true
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-18s only in the base\n", wa.Name)
			continue
		}
		for _, ma := range wa.Metrics {
			mb, found := wb.metric(ma.Name)
			if !found {
				continue
			}
			note := verdict(ma, mb)
			switch {
			case note != "":
				ok = ok && note != "OUTSIDE"
				note = fmt.Sprintf("%s (bound %.2f, slice spread %.3f / %.3f)", note, ma.Bound, spread(ma.Slices), spread(mb.Slices))
			case !exactCount(ma):
			case ma.Value == mb.Value:
				note = "identical"
			default:
				note = "differs"
			}
			ratio := "-" // 0 ÷ 0, as failed_share should be
			if ma.Value != 0 || mb.Value != 0 {
				ratio = fmt.Sprintf("%.3f", mb.Value/ma.Value)
			}
			fmt.Fprintf(w, "%-18s %-44s %16.4f %16.4f %8s  %s\n", wa.Name, ma.Name, ma.Value, mb.Value, ratio, note)
		}
		fmt.Fprintf(w, "%-18s %-44s %16d %16d\n", wa.Name, "failed requests", wa.Failed, wb.Failed)
		ok = ok && wa.Failed == 0 && wb.Failed == 0 && wa.Correct && wb.Correct
	}
	return ok, nil
}
