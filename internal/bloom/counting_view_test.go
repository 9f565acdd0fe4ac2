package bloom

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/hashfam"
)

// naiveProject is the per-counter reference the word-wise projection and
// every carried view are checked against: bit p set iff counts[p] > 0.
func naiveProject(counts []uint8) []uint64 {
	words := make([]uint64, (len(counts)+63)/64)
	for p, cnt := range counts {
		if cnt > 0 {
			words[p/64] |= 1 << (uint(p) % 64)
		}
	}
	return words
}

// TestProjectMatchesPerCounterReference runs the word-wise projection over
// every length 1..200 — tails that are no multiple of 8 or of 64 — with
// counters that exercise each byte of a load: zero, one, the high bit
// alone, saturated, and sparse and dense mixes of them.
func TestProjectMatchesPerCounterReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	values := []uint8{0, 0, 0, 1, 2, 0x7f, 0x80, 0xfe, 0xff}
	for m := 1; m <= 200; m++ {
		for round := 0; round < 20; round++ {
			counts := make([]uint8, m)
			density := rng.Intn(len(values)) + 1
			for p := range counts {
				counts[p] = values[rng.Intn(density)]
			}
			if got, want := project(counts), naiveProject(counts); !slices.Equal(got, want) {
				t.Fatalf("m = %d, counters %v: projected %x, want %x", m, counts, got, want)
			}
		}
		if m < 2 {
			continue // no hash family is that short
		}
		// Through Snapshot, whose vector also has its tail masked.
		c := NewCounting(viewFam(t, uint64(m)))
		for x := uint64(0); x < uint64(m)/3+1; x++ {
			c.Add(x)
		}
		if got, want := c.Snapshot().bits.Raw(), naiveProject(c.counts); !slices.Equal(got, want) {
			t.Fatalf("m = %d: Snapshot %x, want %x", m, got, want)
		}
	}
}

func viewFam(t testing.TB, m uint64) hashfam.Family {
	t.Helper()
	fam, err := hashfam.New(hashfam.DefaultKind, m, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	return fam
}

// checkView fails unless c's memoised view, when it has one, is the fresh
// projection of c's counters bit for bit under c's own insertion count.
func checkView(t *testing.T, step int, op string, c *CountingFilter) {
	t.Helper()
	view := c.PeekSnapshot()
	if view == nil {
		return
	}
	if want := naiveProject(c.counts); !slices.Equal(view.bits.Raw(), want) {
		t.Fatalf("step %d (%s): the view is not the projection of the counters\n got %x\nwant %x", step, op, view.bits.Raw(), want)
	}
	if view.Insertions() != c.Live() {
		t.Fatalf("step %d (%s): the view counts %d insertions, the filter %d", step, op, view.Insertions(), c.Live())
	}
	var set uint64
	for _, cnt := range c.counts {
		if cnt > 0 {
			set++
		}
	}
	if view.SetBits() != set {
		t.Fatalf("step %d (%s): the view remembers %d set bits, its vector has %d", step, op, view.SetBits(), set)
	}
}

// TestCarriedViewIsFreshProjection walks seeded random chains of
// CloneAdd / CloneRemove / Snapshot / Clone and checks after every step
// that the new version's view — when it has one — equals the per-counter
// projection of its counters and carries its Live() count, that a version
// derived from a viewless parent has no view, that a failed CloneRemove
// returns nothing, and that no step changed the parent's counters or view.
// Domains are small, so positions collide inside a batch and inside one
// id, counters cross zero in both directions all the time, and two ids are
// driven to saturation, where a counter must stop moving.
func TestCarriedViewIsFreshProjection(t *testing.T) {
	const stepsPerDomain, saturatingSteps = 1000, 70
	for _, m := range []uint64{5, 61, 200, 1031} {
		rng := rand.New(rand.NewSource(int64(m)))
		cur := NewCounting(viewFam(t, m))
		var members []uint64 // live ids, one entry per insertion
		domain := 4 * m
		viewed, viewless := 0, 0
		for step := 0; step < stepsPerDomain; step++ {
			parentCounts := slices.Clone(cur.counts)
			parentView := cur.PeekSnapshot()
			var parentBits []uint64
			if parentView != nil {
				parentBits = slices.Clone(parentView.bits.Raw())
			}
			next, op := cur, ""
			r := rng.Intn(100)
			if step < saturatingSteps {
				r = 0
			}
			switch {
			case r < 40 || len(members) < 8:
				op = "CloneAdd"
				batch := make([]uint64, 1+rng.Intn(8))
				for i := range batch {
					batch[i] = uint64(rng.Int63n(int64(domain)))
					if i > 0 && rng.Intn(3) == 0 {
						batch[i] = batch[rng.Intn(i)] // a duplicate inside the batch
					}
				}
				if step < saturatingSteps {
					// Eight more of one of two ids: 8·35 insertions of
					// each drive its counters past 255.
					batch = slices.Repeat([]uint64{uint64(step % 2)}, 8)
				}
				next = cur.CloneAdd(batch...)
				members = append(members, batch...)
			case r < 75:
				op = "CloneRemove"
				batch := make([]uint64, 0, 8)
				for want := 1 + rng.Intn(8); len(batch) < want && len(members) > 0; {
					i := rng.Intn(len(members))
					batch = append(batch, members[i])
					members[i] = members[len(members)-1]
					members = members[:len(members)-1]
				}
				var err error
				if next, err = cur.CloneRemove(batch...); err != nil {
					t.Fatalf("step %d: removing live ids %v: %v", step, batch, err)
				}
			case r < 82:
				op = "failed CloneRemove"
				// Live ids first, so counters have crossed zero in the
				// scratch copy by the time the batch meets a non-member.
				batch := slices.Clone(members[:min(len(members), 6)])
				stranger := uint64(rng.Int63n(int64(domain)))
				for tries := 0; cur.Contains(stranger) && tries < 64; tries++ {
					stranger++
				}
				if cur.Contains(stranger) {
					continue // a domain this full has no stranger to offer
				}
				got, err := cur.CloneRemove(append(batch, stranger)...)
				if got != nil || !errors.Is(err, ErrNotMember) {
					t.Fatalf("step %d: a batch ending in a non-member returned %v, %v", step, got, err)
				}
			case r < 92:
				op = "Snapshot"
				cur.Snapshot()
				parentView, parentBits = cur.PeekSnapshot(), slices.Clone(cur.PeekSnapshot().bits.Raw())
			case r < 96:
				op = "Clone"
				next = cur.Clone()
				if next.PeekSnapshot() != parentView {
					t.Fatalf("step %d: Clone did not share the receiver's view", step)
				}
			default:
				op = "Clone + in-place Add"
				next = cur.Clone()
				x := uint64(rng.Int63n(int64(domain)))
				next.Add(x)
				members = append(members, x)
				if next.PeekSnapshot() != nil {
					t.Fatalf("step %d: an in-place Add kept the view", step)
				}
			}

			if !slices.Equal(cur.counts, parentCounts) {
				t.Fatalf("step %d (%s): the receiver's counters changed", step, op)
			}
			if cur.PeekSnapshot() != parentView || (parentView != nil && !slices.Equal(parentView.bits.Raw(), parentBits)) {
				t.Fatalf("step %d (%s): the receiver's view changed", step, op)
			}
			if next != cur && op != "Clone + in-place Add" && (next.PeekSnapshot() != nil) != (parentView != nil) {
				t.Fatalf("step %d (%s): parent viewed = %v, child viewed = %v", step, op, parentView != nil, next.PeekSnapshot() != nil)
			}
			if (op == "CloneAdd" || op == "CloneRemove") && parentView != nil && next.PeekSnapshot() == parentView {
				t.Fatalf("step %d (%s): the child holds the parent's filter header", step, op)
			}
			checkView(t, step, op, next)
			if next.PeekSnapshot() != nil {
				viewed++
			} else {
				viewless++
			}
			if uint64(len(members)) != next.Live() {
				t.Fatalf("step %d (%s): Live = %d, the model holds %d", step, op, next.Live(), len(members))
			}
			cur = next
		}
		for _, x := range members {
			if !cur.Contains(x) {
				t.Fatalf("m = %d: live id %d is a false negative at the end of the walk", m, x)
			}
		}
		if slices.Max(cur.counts) != 255 {
			t.Fatalf("m = %d: no counter reached saturation; the walk did not cover pinned counters", m)
		}
		if viewed < stepsPerDomain/4 || viewless < stepsPerDomain/20 {
			t.Fatalf("m = %d: %d viewed and %d viewless steps; the walk is lopsided", m, viewed, viewless)
		}
	}
}

// TestCloneFromViewlessParentBuildsNothing pins the conditional half of
// the carry: a chain of copy-on-write versions nobody reads (ingest, log
// replay) never builds a view, and one read then serves the whole chain
// after it.
func TestCloneFromViewlessParentBuildsNothing(t *testing.T) {
	c := NewCounting(cowFam(t))
	for i := uint64(0); i < 50; i++ {
		c = c.CloneAdd(i, i+1000)
		var err error
		if c, err = c.CloneRemove(i + 1000); err != nil {
			t.Fatal(err)
		}
		if c.PeekSnapshot() != nil {
			t.Fatalf("write %d of an unread chain built a view", i)
		}
	}
	c.Snapshot()
	for i := uint64(100); i < 150; i++ {
		c = c.CloneAdd(i)
		if c.PeekSnapshot() == nil {
			t.Fatalf("write %d after the read dropped the view", i)
		}
		checkView(t, int(i), "CloneAdd", c)
	}
}

// TestCloneAddSharesViewWhenNoCounterCrosses pins the shared-vector case:
// re-adding ids whose counters are all non-zero changes no bit, so the new
// version's view is the parent's vector under a header of its own — own
// insertion count, no derived value — and the same holds for a remove that
// empties no counter.
func TestCloneAddSharesViewWhenNoCounterCrosses(t *testing.T) {
	c := NewCounting(cowFam(t)).CloneAdd(1, 2, 3)
	parent := c.Snapshot()
	parent.AttachDerived("parent's")
	again := c.CloneAdd(1, 2)
	view := again.PeekSnapshot()
	if view == nil || view == parent || view.bits != parent.bits {
		t.Fatalf("re-adding held ids: view %p over vector %p, parent %p over %p", view, view.bits, parent, parent.bits)
	}
	if view.Insertions() != 5 || view.Derived() != nil || parent.Derived() != "parent's" || parent.Insertions() != 3 {
		t.Fatalf("shared vector, wrong header: n = %d, derived = %v", view.Insertions(), view.Derived())
	}
	back, err := again.CloneRemove(1)
	if err != nil {
		t.Fatal(err)
	}
	if v := back.PeekSnapshot(); v == nil || v.bits != parent.bits || v.Insertions() != 4 {
		t.Fatal("a remove that empties no counter did not share the vector")
	}
	gone, err := back.CloneRemove(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v := gone.PeekSnapshot(); v == nil || v.bits == parent.bits || v.Contains(1) || !v.Contains(2) || !parent.Contains(1) {
		t.Fatal("a remove that empties counters must patch a vector of its own")
	}
}

// TestCarriedViewConcurrentReadersAndWriters is the -race check of the
// carry: readers take the published version's view, probe it and count its
// bits while writers derive version after version from that same value —
// cloning the vector the readers are reading, and sharing it when nothing
// crosses.
func TestCarriedViewConcurrentReadersAndWriters(t *testing.T) {
	published := NewCounting(cowFam(t)).CloneAdd(1, 2, 3, 4, 5, 6, 7, 8)
	for _, viewedFirst := range []bool{true, false} {
		if viewedFirst {
			published.Snapshot()
		}
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := make([]bool, 8)
				var scratch []uint64
				for i := 0; i < 300; i++ {
					view := published.Snapshot()
					scratch = view.ContainsBatch([]uint64{1, 2, 3, 4, 5, 6, 7, 8}, out, scratch)
					if slices.Contains(out, false) || view.SetBits() == 0 || !published.Contains(3) {
						t.Error("a reader of the published version lost a member")
						return
					}
				}
			}()
		}
		for w := uint64(0); w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := uint64(0); i < 300; i++ {
					next := published.CloneAdd(100*w+i+10, 1) // one new id, one that crosses nothing
					less, err := next.CloneRemove(2, 100*w+i+10)
					if err != nil {
						t.Error(err)
						return
					}
					if v := less.PeekSnapshot(); v != nil && (v.Contains(2) || !v.Contains(1)) {
						t.Error("a writer's carried view is wrong")
						return
					}
					if shared, err := published.CloneRemove(); err != nil || shared.Live() != 8 {
						t.Error("an empty batch changed the version")
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestRemoveOfRepeatedPositionStopsAtZero covers the one way a counter
// could pass zero going down: an id that hashes twice to one position and
// was never added (a false positive — outside Remove's contract, but
// nothing stops a client sending it) finds that counter at 1. The counter
// ends at 0, where it used to wrap to 255 and pin the position for good,
// and the carried view clears the bit with it.
func TestRemoveOfRepeatedPositionStopsAtZero(t *testing.T) {
	fam := viewFam(t, 6) // a stride of 3 returns to its first position
	var pos []uint64
	x := uint64(0)
	for ; ; x++ {
		if x == 1000 {
			t.Fatal("no id below 1000 hashes twice to one position")
		}
		pos = fam.Positions(x, pos[:0])
		if pos[0] == pos[2] {
			break
		}
	}
	c := NewCounting(fam)
	for _, p := range pos {
		c.counts[p] = 1
	}
	c.n = 1
	c.Snapshot()
	next, err := c.CloneRemove(x)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Max(next.counts) != 0 {
		t.Fatalf("counters after the remove: %v", next.counts)
	}
	checkView(t, 0, "CloneRemove", next)
	if err := c.Remove(x); err != nil || slices.Max(c.counts) != 0 {
		t.Fatalf("in place: %v, counters %v", err, c.counts)
	}
}
