package hashfam

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindsConstructAll(t *testing.T) {
	for _, kind := range Kinds() {
		f, err := New(kind, 1000, 3, 42)
		if err != nil {
			t.Fatalf("New(%s): %v", kind, err)
		}
		if f.Kind() != kind {
			t.Fatalf("Kind = %s, want %s", f.Kind(), kind)
		}
		if f.K() != 3 || f.M() != 1000 || f.Seed() != 42 {
			t.Fatalf("%s: params not preserved", kind)
		}
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New("nope", 100, 3, 0); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := New(KindSimple, 1, 3, 0); err == nil {
		t.Fatal("m=1 accepted")
	}
	if _, err := New(KindSimple, 100, 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad kind did not panic")
		}
	}()
	MustNew("nope", 100, 3, 0)
}

func TestPositionsInRangeAndDeterministic(t *testing.T) {
	for _, kind := range Kinds() {
		for _, m := range []uint64{2, 7, 64, 1000, 28465} {
			f := MustNew(kind, m, 4, 7)
			g := MustNew(kind, m, 4, 7)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 200; i++ {
				x := rng.Uint64() % (1 << 40)
				p1 := f.Positions(x, nil)
				p2 := g.Positions(x, nil)
				if len(p1) != 4 {
					t.Fatalf("%s m=%d: got %d positions", kind, m, len(p1))
				}
				for j := range p1 {
					if p1[j] >= m {
						t.Fatalf("%s m=%d: position %d out of range", kind, m, p1[j])
					}
					if p1[j] != p2[j] {
						t.Fatalf("%s m=%d: not deterministic", kind, m)
					}
				}
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	for _, kind := range Kinds() {
		a := MustNew(kind, 100000, 3, 1)
		b := MustNew(kind, 100000, 3, 2)
		same := 0
		for x := uint64(0); x < 100; x++ {
			pa := a.Positions(x, nil)
			pb := b.Positions(x, nil)
			if pa[0] == pb[0] && pa[1] == pb[1] && pa[2] == pb[2] {
				same++
			}
		}
		if same > 5 {
			t.Fatalf("%s: %d/100 identical position triples across seeds", kind, same)
		}
	}
}

func TestPositionsAppend(t *testing.T) {
	f := MustNew(KindSimple, 100, 2, 0)
	base := []uint64{99}
	out := f.Positions(5, base)
	if len(out) != 3 || out[0] != 99 {
		t.Fatalf("append semantics broken: %v", out)
	}
}

// Positions should be roughly uniform: a chi-squared-ish sanity check that
// no bucket of m/10 positions receives a wildly disproportionate share.
func TestPositionsRoughlyUniform(t *testing.T) {
	const m = 1000
	const samples = 60000
	for _, kind := range Kinds() {
		f := MustNew(kind, m, 1, 3)
		counts := make([]int, 10)
		for x := uint64(0); x < samples; x++ {
			p := f.Positions(x, nil)
			counts[p[0]/(m/10)]++
		}
		want := samples / 10
		for b, c := range counts {
			if c < want/2 || c > want*2 {
				t.Fatalf("%s: bucket %d has %d hits, want ~%d", kind, b, c, want)
			}
		}
	}
}

func TestSimplePreimages(t *testing.T) {
	const m = 97
	f := MustNew(KindSimple, m, 3, 11).(Invertible)
	const M = 10000
	for i := 0; i < 3; i++ {
		for pos := uint64(0); pos < m; pos += 13 {
			pre := f.Preimages(i, pos, 0, M, nil)
			// Every reported preimage must actually map to pos.
			for _, y := range pre {
				if p := f.Positions(y, nil); p[i] != pos {
					t.Fatalf("h_%d(%d) = %d, want %d", i, y, p[i], pos)
				}
			}
			// Count must be exactly the number of x in [0,M) hitting pos.
			want := 0
			for x := uint64(0); x < M; x++ {
				if f.Positions(x, nil)[i] == pos {
					want++
				}
			}
			if len(pre) != want {
				t.Fatalf("h_%d pos=%d: %d preimages, want %d", i, pos, len(pre), want)
			}
		}
	}
}

func TestSimplePreimagesSubrange(t *testing.T) {
	const m = 50
	f := MustNew(KindSimple, m, 1, 5).(Invertible)
	full := f.Preimages(0, 7, 0, 1000, nil)
	sub := f.Preimages(0, 7, 300, 700, nil)
	for _, y := range sub {
		if y < 300 || y >= 700 {
			t.Fatalf("preimage %d outside [300,700)", y)
		}
	}
	// sub must be exactly the elements of full within the range.
	want := 0
	for _, y := range full {
		if y >= 300 && y < 700 {
			want++
		}
	}
	if len(sub) != want {
		t.Fatalf("subrange preimages = %d, want %d", len(sub), want)
	}
}

func TestSimplePreimagesEdgeCases(t *testing.T) {
	f := MustNew(KindSimple, 100, 2, 1).(Invertible)
	if got := f.Preimages(0, 200, 0, 1000, nil); got != nil {
		t.Fatalf("pos out of range returned %v", got)
	}
	if got := f.Preimages(5, 10, 0, 1000, nil); got != nil {
		t.Fatalf("bad function index returned %v", got)
	}
	if got := f.Preimages(0, 10, 500, 500, nil); got != nil {
		t.Fatalf("empty range returned %v", got)
	}
}

// Property: for random parameters, preimages of every function partition
// the namespace — each x appears in exactly the preimage set of h_i(x).
func TestQuickSimpleInversionConsistent(t *testing.T) {
	f := func(seed uint64, xs []uint32) bool {
		fam := MustNew(KindSimple, 1237, 3, seed).(Invertible)
		for _, x32 := range xs {
			x := uint64(x32) % 100000
			pos := fam.Positions(x, nil)
			for i := 0; i < 3; i++ {
				pre := fam.Preimages(i, pos[i], x, x+1, nil)
				if len(pre) != 1 || pre[0] != x {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestModInverse(t *testing.T) {
	cases := []struct {
		a, m uint64
		ok   bool
	}{
		{3, 10, true},
		{7, 97, true},
		{2, 10, false}, // gcd 2
		{5, 25, false}, // gcd 5
		{1, 7, true},
	}
	for _, c := range cases {
		inv, ok := modInverse(c.a, c.m)
		if ok != c.ok {
			t.Fatalf("modInverse(%d,%d) ok=%v, want %v", c.a, c.m, ok, c.ok)
		}
		if ok && mulMod(c.a, inv, c.m) != 1 {
			t.Fatalf("modInverse(%d,%d)=%d is not an inverse", c.a, c.m, inv)
		}
	}
}

func TestMulMod(t *testing.T) {
	// Exercise the 128-bit path with operands near 2^64.
	const m = 1<<61 - 1
	a := uint64(1<<60 + 12345)
	b := uint64(1<<59 + 6789)
	got := mulMod(a, b, m)
	// Verify via repeated squaring decomposition: compute with math/big-free
	// double-and-add.
	var want uint64
	x, y := a%m, b%m
	for y > 0 {
		if y&1 == 1 {
			want = (want + x) % m
		}
		x = (x + x) % m
		y >>= 1
	}
	if got != want {
		t.Fatalf("mulMod = %d, want %d", got, want)
	}
}

func TestGCD(t *testing.T) {
	if gcd(12, 18) != 6 || gcd(7, 13) != 1 || gcd(0, 5) != 5 || gcd(5, 0) != 5 {
		t.Fatal("gcd wrong")
	}
}

// Reference vectors for MurmurHash3 x64_128 with seed 0, as published in
// the smhasher repository and cross-checked against the spaolacci/murmur3
// Go implementation's test suite.
func TestMurmur3Vectors(t *testing.T) {
	cases := []struct {
		in     string
		h1, h2 uint64
	}{
		{"", 0x0, 0x0},
		{"hello", 0xcbd8a7b341bd9b02, 0x5b1e906a48ae1d19},
		{"hello, world", 0x342fac623a5ebc8e, 0x4cdcbc079642414d},
		{"19 Jan 2038 at 3:14:07 AM", 0xb89e5988b737affc, 0x664fc2950231b2cb},
		{"The quick brown fox jumps over the lazy dog.", 0xcd99481f9ee902c9, 0x695da1a38987b6e7},
	}
	for _, c := range cases {
		h1, h2 := Sum128([]byte(c.in), 0)
		if h1 != c.h1 || h2 != c.h2 {
			t.Fatalf("Sum128(%q) = %#x,%#x want %#x,%#x", c.in, h1, h2, c.h1, c.h2)
		}
	}
}

func TestMurmur3TailLengths(t *testing.T) {
	// Every tail length 0..15 (plus >16) must be deterministic and distinct
	// from its neighbours with overwhelming probability.
	seen := map[uint64]int{}
	for n := 0; n <= 33; n++ {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(i * 7)
		}
		h1, _ := Sum128(buf, 99)
		if prev, dup := seen[h1]; dup {
			t.Fatalf("len %d collides with len %d", n, prev)
		}
		seen[h1] = n
	}
}

func TestDoublePositionsCoversK(t *testing.T) {
	// Even with h2 ≡ 0 (forced to 1), positions must stay in range and be
	// k of them.
	out := doublePositions(5, 0, 7, 10, nil)
	if len(out) != 10 {
		t.Fatalf("len = %d", len(out))
	}
	for _, p := range out {
		if p >= 7 {
			t.Fatalf("position %d out of range", p)
		}
	}
}

func BenchmarkPositions(b *testing.B) {
	for _, kind := range Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			f := MustNew(kind, 60870, 3, 1)
			out := make([]uint64, 0, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = f.Positions(uint64(i), out[:0])
			}
			_ = out
		})
	}
}

func TestSimpleDistinctPrimeModuli(t *testing.T) {
	f := MustNew(KindSimple, 60870, 4, 3).(*simpleFamily)
	seen := map[uint64]bool{}
	for _, c := range f.c {
		if c > 60870 || !isPrime(c) {
			t.Fatalf("modulus %d not a prime <= m", c)
		}
		if seen[c] {
			t.Fatalf("duplicate modulus %d", c)
		}
		seen[c] = true
		if 60870-c > 1000 {
			t.Fatalf("modulus %d too far below m", c)
		}
	}
}

// Regression: with a single shared modulus, elements congruent mod m
// collide on every hash function simultaneously, giving an irreducible
// false-positive floor of ~n/m. With per-function prime moduli the
// congruence classes differ, so x and x+c_0 must NOT collide on all k
// functions.
func TestSimpleNoSimultaneousCongruenceCollisions(t *testing.T) {
	f := MustNew(KindSimple, 10000, 3, 9).(*simpleFamily)
	collisions := 0
	for x := uint64(0); x < 200; x++ {
		y := x + f.c[0] // same class mod c_0 → h_0 collides by design
		px := f.Positions(x, nil)
		py := f.Positions(y, nil)
		if px[0] != py[0] {
			t.Fatalf("h_0(%d) != h_0(%d) despite congruence mod c_0", x, y)
		}
		if px[1] == py[1] && px[2] == py[2] {
			collisions++
		}
	}
	if collisions > 2 {
		t.Fatalf("%d/200 simultaneous collisions across distinct moduli", collisions)
	}
}

func TestIsPrime(t *testing.T) {
	primes := []uint64{2, 3, 5, 7, 97, 7919, 60859}
	composites := []uint64{0, 1, 4, 9, 100, 7917, 60861}
	for _, p := range primes {
		if !isPrime(p) {
			t.Errorf("isPrime(%d) = false", p)
		}
	}
	for _, c := range composites {
		if isPrime(c) {
			t.Errorf("isPrime(%d) = true", c)
		}
	}
}

func TestPrimesBelowTiny(t *testing.T) {
	ps := primesBelow(3, 3)
	if len(ps) != 3 {
		t.Fatalf("got %d primes", len(ps))
	}
	for _, p := range ps {
		if p > 3 || p < 2 {
			t.Fatalf("bad prime %d", p)
		}
	}
}
