package bloom

import (
	"testing"

	"repro/internal/hashfam"
)

func cowFam(t *testing.T) hashfam.Family {
	t.Helper()
	fam, err := hashfam.New(hashfam.KindMurmur3, 4096, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	return fam
}

// TestCloneAddLeavesOriginalUntouched pins the copy-on-write contract:
// the receiver is bit-for-bit unchanged and the returned filter holds the
// union of old and new elements.
func TestCloneAddLeavesOriginalUntouched(t *testing.T) {
	fam := cowFam(t)
	base := NewFromElements(fam, []uint64{1, 2, 3})
	before := base.Clone()

	next := base.CloneAdd(100, 200, 300)
	if !base.Equal(before) {
		t.Fatal("CloneAdd mutated the receiver")
	}
	for _, x := range []uint64{1, 2, 3, 100, 200, 300} {
		if !next.Contains(x) {
			t.Fatalf("clone missing %d", x)
		}
	}
	if next.Insertions() != 6 {
		t.Fatalf("clone insertions = %d, want 6", next.Insertions())
	}
	if base.Insertions() != 3 {
		t.Fatalf("receiver insertions = %d, want 3", base.Insertions())
	}
}

// TestCloneAddSharesBitsWhenUnchanged pins the shared-page trick: when no
// bit changes (duplicate inserts), the bit vector is shared rather than
// copied, and the insertion count still advances on the new header.
func TestCloneAddSharesBitsWhenUnchanged(t *testing.T) {
	fam := cowFam(t)
	base := NewFromElements(fam, []uint64{7, 8, 9})
	dup := base.CloneAdd(7, 9)
	if dup.Bits() != base.Bits() {
		t.Fatal("duplicate-only CloneAdd should share the bit vector")
	}
	if dup.Insertions() != 5 {
		t.Fatalf("insertions = %d, want 5", dup.Insertions())
	}
	grown := base.CloneAdd(7, 1234)
	if grown.Bits() == base.Bits() {
		t.Fatal("CloneAdd with a new element must copy the bit vector")
	}
	if !grown.Contains(1234) || !grown.Contains(7) {
		t.Fatal("grown clone missing elements")
	}
}

// TestCloneAddMatchesAdd: CloneAdd and sequential Add produce identical
// filters.
func TestCloneAddMatchesAdd(t *testing.T) {
	fam := cowFam(t)
	a := NewFromElements(fam, []uint64{10, 20})
	b := a.CloneAdd(30, 40, 50)
	c := a.Clone()
	for _, x := range []uint64{30, 40, 50} {
		c.Add(x)
	}
	if !b.Equal(c) {
		t.Fatal("CloneAdd result differs from sequential Add")
	}
}

// TestCountingCloneRemoveAtomic pins the all-or-nothing batch contract of
// CloneRemove: a batch containing a non-member fails without producing a
// new filter, and the receiver never changes.
func TestCountingCloneRemoveAtomic(t *testing.T) {
	fam := cowFam(t)
	c := NewCounting(fam)
	for _, x := range []uint64{1, 2, 3} {
		c.Add(x)
	}
	if _, err := c.CloneRemove(1, 999); err == nil {
		t.Fatal("batch with non-member accepted")
	}
	for _, x := range []uint64{1, 2, 3} {
		if !c.Contains(x) {
			t.Fatalf("receiver lost %d after failed CloneRemove", x)
		}
	}
	next, err := c.CloneRemove(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if next.Contains(1) && next.Contains(3) && next.Contains(2) == false {
		t.Fatal("CloneRemove did not remove the batch")
	}
	if !next.Contains(2) {
		t.Fatal("CloneRemove removed a surviving member")
	}
	if !c.Contains(1) || !c.Contains(3) {
		t.Fatal("CloneRemove mutated the receiver")
	}
	if next.Live() != 1 {
		t.Fatalf("Live = %d, want 1", next.Live())
	}
}

// TestCountingSnapshotCache pins that Snapshot returns one header until the
// next in-place mutation, which leaves that header as it was and gets a new
// one.
func TestCountingSnapshotCache(t *testing.T) {
	fam := cowFam(t)
	c := NewCounting(fam)
	c.Add(5)
	s1 := c.Snapshot()
	if s2 := c.Snapshot(); s1 != s2 {
		t.Fatal("unchanged filter should return the cached snapshot")
	}
	c.Add(6)
	s3 := c.Snapshot()
	if s3 == s1 {
		t.Fatal("mutation must invalidate the snapshot cache")
	}
	if !s3.Contains(5) || !s3.Contains(6) {
		t.Fatal("fresh snapshot missing elements")
	}
	if s1.Contains(6) && !s1.Contains(5) {
		t.Fatal("old snapshot changed retroactively")
	}
	if err := c.Remove(6); err != nil {
		t.Fatal(err)
	}
	if c.Snapshot().Contains(6) {
		t.Fatal("snapshot after Remove still contains removed element")
	}
}

// TestDerivedLivesWithTheBits pins the life of the derived slot: the first
// value attached wins, it stays while the filter is only read, every
// in-place mutator drops it, and no copy — Clone, CloneAdd (even the one
// that shares the bit vector), Union — takes it along.
func TestDerivedLivesWithTheBits(t *testing.T) {
	fam := cowFam(t)
	type tag struct{ n int }
	first := &tag{1}
	mutators := map[string]func(f *Filter){
		"Add":        func(f *Filter) { f.Add(9) },
		"AddScratch": func(f *Filter) { f.AddScratch(9, nil) },
		"AddMany":    func(f *Filter) { f.AddMany([]uint64{9, 10}) },
		"Reset":      func(f *Filter) { f.Reset() },
	}
	for name, mutate := range mutators {
		f := NewFromElements(fam, []uint64{1, 2, 3})
		if f.Derived() != nil {
			t.Fatal("a new filter carries a derived value")
		}
		if got := f.AttachDerived(first); got != first {
			t.Fatalf("the first attach returned %v", got)
		}
		if got := f.AttachDerived(&tag{2}); got != first || f.Derived() != first {
			t.Fatalf("a second attach displaced the first: %v", got)
		}
		union, err := f.Union(f)
		if err != nil {
			t.Fatal(err)
		}
		for copyName, c := range map[string]*Filter{"Clone": f.Clone(), "CloneAdd": f.CloneAdd(1), "CloneAdd of new ids": f.CloneAdd(77), "Union": union} {
			if c.Derived() != nil {
				t.Fatalf("%s carried the derived value over", copyName)
			}
		}
		f.Contains(1)
		f.SetBits()
		if f.Derived() != first {
			t.Fatal("reading the filter dropped the derived value")
		}
		mutate(f)
		if f.Derived() != nil {
			t.Fatalf("%s left the derived value of the old bits in place", name)
		}
	}
}
