package bloom

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/hashfam"
)

// positivesByContainsBatch is what AppendPositives must equal: the ids of
// [lo, hi) that ContainsBatch — positions stored, then tested — accepts.
func positivesByContainsBatch(f *Filter, lo, hi uint64) []uint64 {
	xs := make([]uint64, 0, hi-lo)
	for x := lo; x < hi; x++ {
		xs = append(xs, x)
	}
	verdict := make([]bool, len(xs))
	f.ContainsBatch(xs, verdict, nil)
	var want []uint64
	for i, x := range xs {
		if verdict[i] {
			want = append(want, x)
		}
	}
	return want
}

// fillTo adds consecutive ids from 0 until the share of set bits reaches
// fill; 1 sets every bit outright, which adding ids may never achieve.
func fillTo(f *Filter, fill float64) {
	if fill == 1 {
		f.Bits().Fill()
		return
	}
	for x := uint64(0); float64(f.SetBits()) < fill*float64(f.M()); x++ {
		f.Add(x)
	}
}

// TestAppendPositivesMatchesContainsBatch holds the range scan — the fused
// early-exit loop of the fast family and the block loop of every other —
// and the single-id Probe to the stored-positions probe, id for id: every family, k of one, three
// and sixteen, a filter length that is not a multiple of the word size and
// one that is prime, filters that are empty, a tenth full and saturated,
// and ranges that are empty, a single id, inside one probe block, and
// across block and word boundaries.
func TestAppendPositivesMatchesContainsBatch(t *testing.T) {
	ranges := [][2]uint64{{5, 5}, {0, 1}, {63, 64}, {64, 65}, {60, 70}, {0, 64}, {1, 130}, {1000, 1321}}
	for _, kind := range hashfam.Kinds() {
		for _, k := range []int{1, 3, 16} {
			for _, m := range []uint64{1000, 4099} { // 1000 = 15·64 + 40; 4099 is prime
				for _, fill := range []float64{0, 0.1, 1} {
					f := New(hashfam.MustNew(kind, m, k, 11))
					fillTo(f, fill)
					for _, r := range ranges {
						name := fmt.Sprintf("%s k=%d m=%d fill=%v [%d,%d)", kind, k, m, fill, r[0], r[1])
						want := positivesByContainsBatch(f, r[0], r[1])
						prefix := []uint64{7, 7, 7} // what out already holds must survive
						got := f.AppendPositives(r[0], r[1], slices.Clone(prefix))
						if !slices.Equal(got[:3], prefix) || !slices.Equal(got[3:], want) {
							t.Fatalf("%s: got %v, want %v after %v", name, got, want, prefix)
						}
						if fill == 0 && len(want) != 0 || fill == 1 && uint64(len(want)) != r[1]-r[0] {
							t.Fatalf("%s: %d positives", name, len(want))
						}
						var buf []uint64
						for x := r[0]; x < r[1]; x++ {
							var hit bool
							if hit, buf = f.Probe(x, buf); hit != slices.Contains(want, x) {
								t.Fatalf("%s: Probe(%d) = %v", name, x, hit)
							}
						}
					}
				}
			}
		}
	}
}

// TestAppendPositivesSteadyStateZeroAllocs pins the contract sampleLeaf
// relies on: once out has grown to a scan's needs, scanning into it again
// allocates nothing — for the fused loop and for the block loop, whose key
// and position blocks are borrowed from out's spare capacity.
func TestAppendPositivesSteadyStateZeroAllocs(t *testing.T) {
	for _, kind := range []hashfam.Kind{hashfam.KindFast, hashfam.KindMurmur3} {
		f := New(hashfam.MustNew(kind, 4099, 3, 5))
		fillTo(f, 0.1)
		out := f.AppendPositives(0, 5000, nil)
		if len(out) == 0 {
			t.Fatalf("%s: scan found nothing", kind)
		}
		allocs := testing.AllocsPerRun(20, func() { out = f.AppendPositives(0, 5000, out[:0]) })
		if allocs != 0 {
			t.Fatalf("%s: steady-state scan allocates %v, want 0", kind, allocs)
		}
	}
}

// FuzzAppendPositives explores (m, k, seed, lo, length) for disagreement
// between the range scan and the stored-positions probe on the two
// families with distinct scan loops, and between the single-id early-exit
// probe and Contains on every id of the range.
func FuzzAppendPositives(f *testing.F) {
	f.Add(uint64(1000), uint8(3), uint64(1), uint64(0), uint16(200))
	f.Add(uint64(4099), uint8(16), uint64(2), uint64(1<<40), uint16(65))
	f.Add(uint64(2), uint8(1), uint64(3), uint64(63), uint16(2))
	// The fast family sieves 64 ids at a time: ranges that start off a
	// block boundary, end inside a block, and are shorter than one. (A
	// filter of more than 2³² bits is beyond a fuzz target; the reduction's
	// large moduli are hashfam's FuzzFastReduce's.)
	f.Add(uint64(27_392), uint8(3), uint64(4), uint64(37), uint16(200))
	f.Add(uint64(60_001), uint8(2), uint64(5), uint64(1<<33+65), uint16(127))
	f.Add(uint64(513), uint8(7), uint64(6), uint64(100), uint16(31))
	f.Fuzz(func(t *testing.T, m uint64, k uint8, seed, lo uint64, length uint16) {
		m = 2 + m%(1<<16)
		lo %= 1 << 62
		hi := lo + uint64(length)%600
		for _, kind := range []hashfam.Kind{hashfam.KindFast, hashfam.KindMurmur3} {
			fl := New(hashfam.MustNew(kind, m, 1+int(k%20), seed))
			for x := lo; x < hi; x += 1 + seed%7 { // some of the range, so hits are certain
				fl.Add(x)
			}
			want := positivesByContainsBatch(fl, lo, hi)
			if got := fl.AppendPositives(lo, hi, nil); !slices.Equal(got, want) {
				t.Fatalf("%s m=%d k=%d seed=%d [%d,%d): got %v, want %v", kind, m, 1+int(k%20), seed, lo, hi, got, want)
			}
			var buf []uint64
			for x := lo; x < hi; x++ {
				var got bool
				if got, buf = fl.Probe(x, buf); got != fl.Contains(x) {
					t.Fatalf("%s m=%d k=%d seed=%d: Probe(%d) = %v, Contains says %v", kind, m, 1+int(k%20), seed, x, got, !got)
				}
			}
		}
	})
}
