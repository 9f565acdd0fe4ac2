package hashfam

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// Reference vectors for Mix128, pinned so the fast family's on-disk
// compatibility (filters persist their kind and positions) can never
// drift silently across refactors.
func TestMix128Vectors(t *testing.T) {
	cases := []struct {
		x, seed uint64
		h1, h2  uint64
	}{
		{0x0, 0x0, 0x1ff5c2923a788d2c, 0x2afa3043c0fbb4d2},
		{0x1, 0x0, 0x7e0e2ff6b13a291e, 0x370a4a0000d542d2},
		{0x0, 0x1, 0x38f94c439ac36242, 0x5dbbe64fa834b821},
		{0xdeadbeef, 0x2a, 0x8973390ca9fd116, 0x53516b3f0f7be1da},
		{0x8000000000000000, 0xffffffffffffffff, 0xafb2b128f8c19328, 0xbb7d68811b640a69},
		{0x75bcd15, 0x3ade68b1, 0xdae73ba4834397ab, 0x3961317045dcbca8},
	}
	for _, c := range cases {
		h1, h2 := Mix128(c.x, c.seed)
		if h1 != c.h1 || h2 != c.h2 {
			t.Fatalf("Mix128(%#x, %#x) = %#x,%#x want %#x,%#x", c.x, c.seed, h1, h2, c.h1, c.h2)
		}
	}
}

// TestFastReduceIsExact holds the reciprocal reduction to the hardware
// remainder: every position of every fast-family filter ever persisted was
// derived with h % m, so a single disagreement would orphan stored bits.
// The moduli are the smallest, powers of two and their neighbours (where
// ⌊(2⁶⁴−1)/m⌋ is exact, one short and one over), two planned filter sizes,
// one just above 2³², and the largest, for which the reciprocal is 1; the
// hashes are both ends, every multiple of m the quotient estimate could
// fall short at, and a million random ones.
func TestFastReduceIsExact(t *testing.T) {
	moduli := []uint64{2, 3, 27_392, 273_404, 273_408, 1<<63 + 1, 1<<64 - 1}
	for j := uint(1); j < 64; j++ {
		moduli = append(moduli, 1<<j-1, 1<<j, 1<<j+1)
	}
	rng := rand.New(rand.NewSource(15))
	for _, m := range moduli {
		if m < 2 {
			continue
		}
		inv := fastReciprocal(m)
		top := ^uint64(0) / m // the largest quotient
		hashes := []uint64{0, 1, m - 1, m, m + 1, top*m - 1, top * m, top*m + (m - 1), 1<<64 - 1}
		for i := 0; i < 1000; i++ {
			q := 1 + rng.Uint64()%top
			hashes = append(hashes, q*m-1, q*m, rng.Uint64())
		}
		for _, h := range hashes {
			if got := fastReduce(h, m, inv); got != h%m {
				t.Fatalf("fastReduce(%d, m=%d) = %d, want %d", h, m, got, h%m)
			}
		}
	}
	for i := 0; i < 1_000_000; i++ {
		h, m := rng.Uint64(), rng.Uint64()>>(rng.Uint64()%63)
		if m < 2 {
			continue
		}
		if got := fastReduce(h, m, fastReciprocal(m)); got != h%m {
			t.Fatalf("fastReduce(%d, m=%d) = %d, want %d", h, m, got, h%m)
		}
	}
}

func FuzzFastReduce(f *testing.F) {
	f.Add(uint64(0), uint64(2))
	f.Add(uint64(1<<64-1), uint64(3))
	f.Add(uint64(1<<64-1), uint64(1<<64-1))
	f.Add(uint64(273_404*977-1), uint64(273_404))
	f.Add(uint64(1<<63), uint64(1<<63+1))
	f.Add(uint64(1<<40+12345), uint64(1<<32+15))
	f.Fuzz(func(t *testing.T, h, m uint64) {
		if m < 2 {
			return
		}
		if got := fastReduce(h, m, fastReciprocal(m)); got != h%m {
			t.Fatalf("fastReduce(%d, m=%d) = %d, want %d", h, m, got, h%m)
		}
	})
}

func TestDefaultKindIsFast(t *testing.T) {
	if DefaultKind != KindFast {
		t.Fatalf("DefaultKind = %s", DefaultKind)
	}
	f, err := New(DefaultKind, 1000, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.(BatchFamily); !ok {
		t.Fatal("default family does not implement BatchFamily")
	}
}

// TestPositionsManyMatchesPositions pins the batch contract for every
// family: PositionsMany (native or via the package fallback) must produce
// exactly the concatenation of per-key Positions calls.
func TestPositionsManyMatchesPositions(t *testing.T) {
	for _, kind := range Kinds() {
		f := MustNew(kind, 60870, 5, 13)
		xs := make([]uint64, 97)
		for i := range xs {
			xs[i] = uint64(i * 2654435761)
		}
		batch := PositionsMany(f, xs, nil)
		if len(batch) != len(xs)*5 {
			t.Fatalf("%s: batch yielded %d positions, want %d", kind, len(batch), len(xs)*5)
		}
		for i, x := range xs {
			single := f.Positions(x, nil)
			for j, p := range single {
				if batch[i*5+j] != p {
					t.Fatalf("%s: PositionsMany[%d][%d] = %d, Positions = %d", kind, i, j, batch[i*5+j], p)
				}
			}
		}
		// Append semantics: existing prefix preserved.
		pre := PositionsMany(f, xs[:2], []uint64{42})
		if pre[0] != 42 || len(pre) != 1+2*5 {
			t.Fatalf("%s: append semantics broken: %v", kind, pre)
		}
	}
}

// TestFastIndexSplitUniform runs the paper-style chi-squared uniformity
// test (§7.2) over the fast family's k-index split: each of the k derived
// positions, taken separately over many keys, must be uniform over the m
// cells. This is the property enhanced double hashing is supposed to
// deliver from one 128-bit mix — a correlated (h1,h2) pair would skew the
// later indices even with a uniform h1.
func TestFastIndexSplitUniform(t *testing.T) {
	const (
		m = 64
		k = 4
	)
	f := MustNew(KindFast, m, k, 977)
	samples := stats.RecommendedRounds(m)
	counts := make([][]int, k)
	for i := range counts {
		counts[i] = make([]int, m)
	}
	pos := make([]uint64, 0, k)
	for x := 0; x < samples; x++ {
		pos = f.Positions(uint64(x)*0x9e3779b97f4a7c15+7, pos[:0])
		for i, p := range pos {
			counts[i][p]++
		}
	}
	for i := range counts {
		res, err := stats.ChiSquaredUniform(counts[i])
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject(0.01) {
			t.Fatalf("index %d of the k-split rejects uniformity: %v", i, res)
		}
	}
}

// The two mix halves must be jointly well distributed: h2 conditioned on
// a fixed low bit of h1 should still be uniform (a pure affine second
// fold would fail this under double hashing's odd-forcing).
func TestMix128HalvesIndependent(t *testing.T) {
	const cells = 32
	var counts [2][cells]int
	for x := uint64(0); x < 130*cells*8; x++ {
		h1, h2 := Mix128(x, 3)
		counts[h1&1][(h2>>32)%cells]++
	}
	for b := range counts {
		res, err := stats.ChiSquaredUniform(counts[b][:])
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject(0.01) {
			t.Fatalf("h2 | h1-bit=%d rejects uniformity: %v", b, res)
		}
	}
}

func BenchmarkPositionsMany(b *testing.B) {
	for _, kind := range Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			f := MustNew(kind, 60870, 3, 1)
			xs := make([]uint64, 64)
			for i := range xs {
				xs[i] = uint64(i)
			}
			out := make([]uint64, 0, len(xs)*3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = PositionsMany(f, xs, out[:0])
			}
			_ = out
		})
	}
}

// BenchmarkFastRangeScan times the fast family's leaf scan over a filter a
// tenth full, on a fresh range every iteration (a repeated range is learnt
// by the branch predictor and flatters any branchy loop), for two planned
// filter sizes: fastReduce's quotient estimate is one short for about
// (1 + (2⁶⁴−1) mod m)/2m of the hashes — 45 % of them at m = 27 341, 1 % at
// m = 273 404 — so a correction compiled to a branch is fast for one and
// slow for the other. The two should read alike.
func BenchmarkFastRangeScan(b *testing.B) {
	for _, m := range []uint64{27_341, 273_404} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			const span = 7812
			f := MustNew(KindFast, m, 3, 1).(RangeProber)
			words := make([]uint64, (m+63)/64)
			var pos []uint64
			for x := uint64(0); x < m/27; x++ {
				pos = f.Positions(x*97, pos[:0])
				for _, p := range pos {
					words[p/64] |= 1 << (p % 64)
				}
			}
			out := make([]uint64, 0, span)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := uint64(i%1024) * span
				out = f.AppendPositives(words, lo, lo+span, out[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/span, "ns/id")
		})
	}
}
