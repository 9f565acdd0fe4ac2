package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestKeywordIndex runs the example at its seed and checks what it prints:
// every keyword survives the save and the reload, and the reconstruction of
// "bloom AND filter" finds every true co-occurrence, since a Bloom filter
// has no false negatives.
func TestKeywordIndex(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	find := func(pattern string) []int {
		t.Helper()
		m := regexp.MustCompile(pattern).FindStringSubmatch(out.String())
		if m == nil {
			t.Fatalf("no line matches %q in:\n%s", pattern, out.String())
		}
		var n []int
		for _, s := range m[1:] {
			v, err := strconv.Atoi(s)
			if err != nil {
				t.Fatal(err)
			}
			n = append(n, v)
		}
		return n
	}
	ingested := find(`ingested (\d+) keywords`)[0]
	if served := find(`serving (\d+) keywords`)[0]; ingested != 7 || served != ingested {
		t.Errorf("ingested %d keywords and served %d after the reload, want 7 and 7", ingested, served)
	}
	both := find(`'bloom AND filter': estimated \d+ docs, reconstructed (\d+) candidates, (\d+) true co-occurrences`)
	if both[0] < both[1] || both[1] < 50 {
		t.Errorf("'bloom AND filter' reconstructed %d candidates for %d true co-occurrences, want at least the ≥ 50 true ones", both[0], both[1])
	}
}
