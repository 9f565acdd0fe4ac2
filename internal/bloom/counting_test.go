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

func TestCountingSizeBytes(t *testing.T) {
	c := NewCounting(countingFam(t))
	if c.SizeBytes() != 10000 {
		t.Fatalf("SizeBytes = %d", c.SizeBytes())
	}
	// ~8x a plain filter of the same m (one byte per position vs one bit,
	// modulo the plain filter's word alignment).
	plain := New(countingFam(t))
	if c.SizeBytes() < plain.SizeBytes()*7 || c.SizeBytes() > plain.SizeBytes()*8 {
		t.Fatalf("counting %d vs plain %d bytes", c.SizeBytes(), plain.SizeBytes())
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
