package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestCallRecords runs the example at its seed and checks what it prints:
// the subpoena of tower A recovers every number the tower saw and is at
// least as precise as the plan's accuracy, the preview says it is
// incomplete, the cross-reference under PruneByAndBits finds every suspect,
// and HashInvert's reconstruction of tower C holds every number the tower
// saw, since a Bloom filter has no false negatives.
func TestCallRecords(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	find := func(pattern string) []float64 {
		t.Helper()
		m := regexp.MustCompile(pattern).FindStringSubmatch(out.String())
		if m == nil {
			t.Fatalf("no line matches %q in:\n%s", pattern, out.String())
		}
		var v []float64
		for _, s := range m[1:] {
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				t.Fatal(err)
			}
			v = append(v, f)
		}
		return v
	}

	a := find(`tower A subpoena: \d+ candidates for \d+ true numbers \(([\d.]+)% precision, ([\d.]+)% recall\)`)
	if a[0] < 100*accuracy {
		t.Errorf("tower A's subpoena is %.1f %% precise, below the planned accuracy %.2f", a[0], accuracy)
	}
	if a[1] != 100 {
		t.Errorf("tower A's subpoena recalls %.1f %% of the tower's numbers, want all of them", a[1])
	}
	find(`tower A preview \(estimate-pruned, incomplete\): \d+ candidates, ([\d.]+)% recall`)
	if s := find(`cross-reference A∩B: \d+ common numbers, (\d+)/(\d+) suspects present`); s[0] != s[1] || s[1] != 3 {
		t.Errorf("the cross-reference found %v of %v suspects, want 3 of 3", s[0], s[1])
	}
	if c := find(`tower C via HashInvert: (\d+) candidates holding (\d+) of (\d+) true numbers`); c[1] != c[2] || c[2] != 3000 || c[0] < c[2] {
		t.Errorf("HashInvert returned %v candidates holding %v of tower C's %v numbers, want all 3000", c[0], c[1], c[2])
	}
}
