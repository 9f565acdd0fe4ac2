package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestCommunities runs the example at its seed and checks what it prints:
// the panel holds 20 users, true members at least as often as the accuracy
// target promises, and every user sampled from the intersection filter is
// a member of both communities, no more of them than the true overlap.
func TestCommunities(t *testing.T) {
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

	if p := find(`panel of (\d+) users drawn; (\d+) verified true members \(accuracy target ([\d.]+)\)`); p[0] != 20 || p[1] < p[2]*p[0] {
		t.Errorf("a panel of %v users held %v true members, want 20 users and at least %v of them", p[0], p[1], p[2]*20)
	}
	overlap := find(`overlap #gadgets ∩ #photography: estimated \d+ users, true (\d+)`)[0]
	if c := find(`sampled (\d+) of 5 requested users from the intersection filter, (\d+) in both communities`); c[0] == 0 || c[1] != c[0] || c[0] > overlap {
		t.Errorf("sampled %v users from the intersection filter, %v of them in both communities, whose true overlap is %v", c[0], c[1], overlap)
	}
}
