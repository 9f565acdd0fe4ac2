package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hashfam"
)

func countingFam(t testing.TB) hashfam.Family {
	t.Helper()
	return hashfam.MustNew(hashfam.KindMurmur3, 10000, 3, 5)
}

func TestCountingAddRemoveContains(t *testing.T) {
	c := NewCounting(countingFam(t))
	if c.Contains(42) {
		t.Fatal("empty filter contains 42")
	}
	c.Add(42)
	if !c.Contains(42) {
		t.Fatal("added element missing")
	}
	if c.Live() != 1 {
		t.Fatalf("Live = %d", c.Live())
	}
	if err := c.Remove(42); err != nil {
		t.Fatal(err)
	}
	if c.Contains(42) {
		t.Fatal("removed element still present")
	}
	if c.Live() != 0 {
		t.Fatalf("Live = %d after remove", c.Live())
	}
}

func TestCountingRemoveNonMember(t *testing.T) {
	c := NewCounting(countingFam(t))
	c.Add(1)
	if err := c.Remove(999999); err == nil {
		t.Fatal("remove of non-member accepted")
	}
	// The failed remove must not damage the stored element.
	if !c.Contains(1) {
		t.Fatal("failed remove corrupted member")
	}
}

func TestCountingSharedBitsSurviveRemoval(t *testing.T) {
	// Two elements may share counter positions; removing one must keep
	// the other present.
	c := NewCounting(countingFam(t))
	for x := uint64(0); x < 500; x++ {
		c.Add(x)
	}
	for x := uint64(0); x < 250; x++ {
		if err := c.Remove(x); err != nil {
			t.Fatal(err)
		}
	}
	for x := uint64(250); x < 500; x++ {
		if !c.Contains(x) {
			t.Fatalf("element %d lost after removing others", x)
		}
	}
}

func TestCountingSnapshotMatchesPlainFilter(t *testing.T) {
	fam := countingFam(t)
	c := NewCounting(fam)
	plain := New(fam)
	rng := rand.New(rand.NewSource(1))
	live := map[uint64]bool{}
	for i := 0; i < 300; i++ {
		x := rng.Uint64() % 100000
		c.Add(x)
		live[x] = true
	}
	// Remove half, then compare the snapshot with a plain filter built
	// from the survivors.
	removed := 0
	for x := range live {
		if removed >= len(live)/2 {
			break
		}
		if err := c.Remove(x); err != nil {
			t.Fatal(err)
		}
		delete(live, x)
		removed++
	}
	for x := range live {
		plain.Add(x)
	}
	snap := c.Snapshot()
	// Counter-based state after add+remove equals direct construction
	// from the survivors (no counter saturated in this test).
	if !snap.Equal(plain) {
		t.Fatal("snapshot differs from directly built filter")
	}
	if snap.Insertions() != uint64(len(live)) {
		t.Fatalf("snapshot insertions = %d, want %d", snap.Insertions(), len(live))
	}
}

func TestCountingSaturation(t *testing.T) {
	// Force a counter to 255 by re-adding one element; saturated counters
	// pin and never decrement, so the element stays present no matter how
	// many removes follow.
	c := NewCounting(countingFam(t))
	for i := 0; i < 300; i++ {
		c.Add(7)
	}
	for i := 0; i < 300; i++ {
		if err := c.Remove(7); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Contains(7) {
		t.Fatal("saturated element lost (counter wrapped?)")
	}
}

func TestCountingReset(t *testing.T) {
	c := NewCounting(countingFam(t))
	c.Add(1)
	c.Reset()
	if c.Contains(1) || c.Live() != 0 {
		t.Fatal("reset incomplete")
	}
}

// TestCountingSizeBytes pins what a counting filter holds: its bit
// vector — a plain filter's bytes, which its Snapshot shares — and 8 bytes
// per counter of 2 or more.
func TestCountingSizeBytes(t *testing.T) {
	c := NewCounting(countingFam(t))
	plain := New(countingFam(t))
	if c.SizeBytes() != plain.SizeBytes() || c.Snapshot().SizeBytes() != plain.SizeBytes() {
		t.Fatalf("empty: counting %d B, its view %d, a plain filter %d", c.SizeBytes(), c.Snapshot().SizeBytes(), plain.SizeBytes())
	}
	c = c.CloneAdd(1, 2, 1, 1, 3)
	if want := plain.SizeBytes() + 8*uint64(len(c.over)); len(c.over) < 3 || c.SizeBytes() != want {
		t.Fatalf("three counters at 3: %d B over %d entries, want %d", c.SizeBytes(), len(c.over), want)
	}
}

// TestCountingMemoryBound holds a counting filter to its bound under
// overload. A counter of 2 or more holds at least two of the k·Live()
// insertions, so the list has at most k·Live()/2 entries and the filter
// costs at most m/8 + 4·k·Live() bytes — what it stores, not m. On the
// served mixed_wal shape (m = 27 391, k = 3, 500 ids planned) it checks
// that bound at 1×, 4× and 16× the plan, and that at plan the filter holds
// under a quarter of the m bytes its counters once took.
func TestCountingMemoryBound(t *testing.T) {
	const m, k, planned = 27_391, 3, 500
	fam := hashfam.MustNew(hashfam.DefaultKind, m, k, 1)
	rng := rand.New(rand.NewSource(1))
	c := NewCounting(fam)
	for _, load := range []int{1, 4, 16} {
		batch := make([]uint64, load*planned-int(c.Live()))
		for i := range batch {
			batch[i] = rng.Uint64()
		}
		c = c.CloneAdd(batch...)
		bound := New(fam).SizeBytes() + 4*k*c.Live()
		t.Logf("%2d× plan: %d B (%d overflow entries), bound %d, %d counters", load, c.SizeBytes(), len(c.over), bound, m)
		if c.SizeBytes() > bound {
			t.Errorf("%d× plan: %d B, above the bound m/8 + 4·k·live = %d", load, c.SizeBytes(), bound)
		}
		if load == 1 && c.SizeBytes() > m/4 {
			t.Errorf("at plan: %d B, want under m/4 = %d", c.SizeBytes(), m/4)
		}
	}
}

// Property: after any sequence of adds and (valid) removes, every element
// with a positive net count is present — no false negatives, ever.
func TestQuickCountingNoFalseNegatives(t *testing.T) {
	fam := hashfam.MustNew(hashfam.KindFast, 4096, 3, 9)
	f := func(ops []uint16) bool {
		c := NewCounting(fam)
		net := map[uint64]int{}
		for _, o := range ops {
			x := uint64(o % 512)
			if o&0x8000 != 0 && net[x] > 0 {
				if err := c.Remove(x); err != nil {
					return false // x had net>0 so it must be removable
				}
				net[x]--
			} else {
				c.Add(x)
				net[x]++
			}
		}
		for x, n := range net {
			if n > 0 && !c.Contains(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Snapshot agrees with Contains on every queried element.
func TestQuickCountingSnapshotConsistent(t *testing.T) {
	fam := hashfam.MustNew(hashfam.KindFast, 4096, 3, 11)
	f := func(xs []uint16, probes []uint16) bool {
		c := NewCounting(fam)
		for _, x := range xs {
			c.Add(uint64(x))
		}
		snap := c.Snapshot()
		for _, p := range probes {
			if snap.Contains(uint64(p)) != c.Contains(uint64(p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
