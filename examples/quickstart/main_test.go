package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestQuickstart runs the example at its seed and checks what it prints:
// the samples are true elements at least as often as the plan's accuracy
// promises, the single-pass draw returns ten distinct ids, and the
// reconstruction under PruneByAndBits misses no element of the set.
func TestQuickstart(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	find := func(pattern string) []string {
		t.Helper()
		m := regexp.MustCompile(pattern).FindStringSubmatch(out.String())
		if m == nil {
			t.Fatalf("no line matches %q in:\n%s", pattern, out.String())
		}
		return m[1:]
	}
	atoi := func(s string) int {
		t.Helper()
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	sampled := find(`sampling: (\d+)/(\d+) samples were true elements \(designed accuracy ([\d.]+)\)`)
	acc, err := strconv.ParseFloat(sampled[2], 64)
	if err != nil {
		t.Fatal(err)
	}
	if hits, rounds := atoi(sampled[0]), atoi(sampled[1]); float64(hits) < acc*float64(rounds) {
		t.Errorf("%d of %d samples were true elements, below the designed accuracy %.2f", hits, rounds, acc)
	}
	ten := strings.Fields(find(`10 distinct samples: \[([\d ]*)\]`)[0])
	seen := map[string]bool{}
	for _, x := range ten {
		seen[x] = true
	}
	if len(ten) != 10 || len(seen) != 10 {
		t.Errorf("the single-pass draw returned %v, want 10 distinct ids", ten)
	}
	recon := find(`reconstruction: (\d+) elements \((\d+) true \+ \d+ false positives\), (\d+) missed`)
	if n, set, missed := atoi(recon[0]), atoi(recon[1]), atoi(recon[2]); missed != 0 || n < set {
		t.Errorf("the reconstruction holds %d elements for a set of %d and missed %d, want none missed", n, set, missed)
	}
}
