package bitset

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
	if s.Count() != 0 {
		t.Fatalf("Count = %d, want 0", s.Count())
	}
	if s.Any() {
		t.Fatal("Any = true on empty set")
	}
	if !s.None() {
		t.Fatal("None = false on empty set")
	}
}

func TestSetTestClear(t *testing.T) {
	s := New(130)
	for _, i := range []uint64{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	s.Clear(64)
	if s.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if s.Count() != 7 {
		t.Fatalf("Count = %d, want 7", s.Count())
	}
}

func TestSetIdempotent(t *testing.T) {
	s := New(10)
	s.Set(3)
	s.Set(3)
	if s.Count() != 1 {
		t.Fatalf("Count = %d, want 1", s.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for name, fn := range map[string]func(){
		"Set":   func() { s.Set(10) },
		"Test":  func() { s.Test(10) },
		"Clear": func() { s.Clear(100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFillAndReset(t *testing.T) {
	for _, n := range []uint64{1, 63, 64, 65, 100, 128} {
		s := New(n)
		s.Fill()
		if s.Count() != n {
			t.Fatalf("n=%d: Count after Fill = %d", n, s.Count())
		}
		s.Reset()
		if s.Count() != 0 {
			t.Fatalf("n=%d: Count after Reset = %d", n, s.Count())
		}
	}
}

func TestAndOr(t *testing.T) {
	a := New(200)
	b := New(200)
	a.Set(1)
	a.Set(100)
	a.Set(199)
	b.Set(100)
	b.Set(150)

	and := a.And(b)
	if and.Count() != 1 || !and.Test(100) {
		t.Fatalf("And wrong: %v", and)
	}
	or := a.Or(b)
	if or.Count() != 4 {
		t.Fatalf("Or count = %d, want 4", or.Count())
	}
	for _, i := range []uint64{1, 100, 150, 199} {
		if !or.Test(i) {
			t.Fatalf("Or missing bit %d", i)
		}
	}
	// Originals untouched.
	if a.Count() != 3 || b.Count() != 2 {
		t.Fatal("And/Or mutated operands")
	}
}

func TestAndCountAndAny(t *testing.T) {
	a := New(500)
	b := New(500)
	if a.AndAny(b) {
		t.Fatal("AndAny on empty sets")
	}
	a.Set(400)
	b.Set(400)
	a.Set(3)
	if got := a.AndCount(b); got != 1 {
		t.Fatalf("AndCount = %d, want 1", got)
	}
	if !a.AndAny(b) {
		t.Fatal("AndAny = false with shared bit")
	}
}

// TestAndCountAtLeastMatchesAndCount holds the early-exit count to the
// full one on random vectors of every density, whose word counts are not
// multiples of the block (and one shorter than a block), at the thresholds
// where the verdict turns — and pins what it is allowed to read: nothing
// for a threshold of zero, everything when the count falls short, and
// otherwise the words up to the first block boundary at which the running
// count arrives; the partial block at the end is read whole. The tree's
// words-read gate (core) is computed from that rule.
func TestAndCountAtLeastMatchesAndCount(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []uint64{1, 64, 300, 64*andBlock - 1, 64 * andBlock, 64*andBlock + 1, 64*19 + 7, 273_404} {
		for _, fill := range []float64{0, 0.02, 0.5, 1} {
			a, b := New(n), New(n)
			for i := uint64(0); i < n; i++ {
				if rng.Float64() < fill {
					a.Set(i)
				}
				if rng.Float64() < fill {
					b.Set(i)
				}
			}
			count := a.AndCount(b)
			for _, need := range []uint64{0, 1, count / 2, count, count + 1, n + 1} {
				reached := a.AndCountAtLeast(b, need)
				if reached != (count >= need) {
					t.Fatalf("n=%d fill=%v: AndCountAtLeast(%d) = %v with AndCount = %d", n, fill, need, reached, count)
				}
				want, running := 0, uint64(0)
				for want < len(a.words) && running < need {
					step := min(andBlock, len(a.words)-want)
					for ; step > 0; step-- {
						running += uint64(bits.OnesCount64(a.words[want] & b.words[want]))
						want++
					}
				}
				if c, read := andCount(a.words, b.words, need); read != want || c != running {
					t.Fatalf("n=%d fill=%v need=%d of %d: read %d of %d words counting %d, want %d counting %d", n, fill, need, count, read, len(a.words), c, want, running)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AndCountAtLeast with mismatched length did not panic")
		}
	}()
	New(10).AndCountAtLeast(New(11), 1)
}

// andReference is popcount(a AND b) taken bit by bit, sharing nothing with
// the word loop it checks.
func andReference(a, b *Set) uint64 {
	var c uint64
	for i := uint64(0); i < a.Len(); i++ {
		if a.Test(i) && b.Test(i) {
			c++
		}
	}
	return c
}

// checkCounts holds Count, AndCount and AndCountAtLeast(need) on a and b to
// the bit-by-bit references, and the words an early exit reads to a whole
// number of blocks or the whole vector.
func checkCounts(t *testing.T, shape string, a, b *Set, needs ...uint64) {
	t.Helper()
	if got, want := a.Count(), recount(a); got != want {
		t.Fatalf("%s: Count = %d, recount = %d", shape, got, want)
	}
	count := andReference(a, b)
	if got := a.AndCount(b); got != count {
		t.Fatalf("%s: AndCount = %d, bit by bit %d", shape, got, count)
	}
	for _, need := range append(needs, 0, 1, count, count+1, math.MaxUint64) {
		if got := a.AndCountAtLeast(b, need); got != (count >= need) {
			t.Fatalf("%s: AndCountAtLeast(%d) = %v with a count of %d", shape, need, got, count)
		}
		if _, read := andCount(a.words, b.words, need); read%andBlock != 0 && read != len(a.words) {
			t.Fatalf("%s need=%d: read %d of %d words, neither whole blocks nor all", shape, need, read, len(a.words))
		}
	}
}

// TestAndCountEveryShape runs the popcount loop over every word count from
// 0 to 40 — no block, whole blocks, and every length of the tail after
// them — at a full last word, one bit short of it and one bit into it,
// with every pairing of five fills, against the bit-by-bit references.
func TestAndCountEveryShape(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	random := func(s *Set, p float64) {
		for i := uint64(0); i < s.Len(); i++ {
			if rng.Float64() < p {
				s.Set(i)
			}
		}
	}
	fills := []struct {
		name string
		fill func(s *Set)
	}{
		{"empty", func(*Set) {}},
		{"one", func(s *Set) { s.Set(rng.Uint64() % s.Len()) }},
		{"sparse", func(s *Set) { random(s, 1.0/32) }},
		{"half", func(s *Set) { random(s, 0.5) }},
		{"full", (*Set).Fill},
	}
	for w := uint64(0); w <= 40; w++ {
		for _, n := range []uint64{64 * w, 64*w - 1, 64*w - 63} {
			if n > 64*w {
				continue // at w = 0, 64w - 1 and 64w - 63 wrap around
			}
			for _, fa := range fills {
				for _, fb := range fills {
					a, b := New(n), New(n)
					if n > 0 {
						fa.fill(a)
						fb.fill(b)
					}
					checkCounts(t, fmt.Sprintf("n=%d, %s AND %s", n, fa.name, fb.name), a, b)
				}
			}
		}
	}
}

// FuzzAndCount holds the three counts to the bit-by-bit references on two
// vectors of one arbitrary length, their words read from the two inputs
// (repeated to fill a vector longer than an input, zero if it is empty).
func FuzzAndCount(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint16(0), uint64(0))
	f.Add([]byte{0xff}, []byte{0xff}, uint16(1), uint64(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{0xff, 0x0f}, uint16(64*9-1), uint64(30))
	f.Add(bytes.Repeat([]byte{0xff}, 64), bytes.Repeat([]byte{0xaa}, 64), uint16(64*17+5), uint64(500))
	f.Fuzz(func(t *testing.T, x, y []byte, n uint16, need uint64) {
		vector := func(data []byte) *Set {
			words := make([]uint64, (uint64(n)+63)/64)
			if len(data) > 0 {
				for i := range words {
					for j := range 8 {
						words[i] |= uint64(data[(8*i+j)%len(data)]) << (8 * j)
					}
				}
			}
			return FromWords(uint64(n), words)
		}
		a, b := vector(x), vector(y)
		count := andReference(a, b)
		shape := fmt.Sprintf("n=%d", n)
		checkCounts(t, shape, a, b, need, need%(count+2))
		checkCounts(t, shape, b, a, need)
	})
}

func TestLengthMismatchPanics(t *testing.T) {
	a := New(10)
	b := New(11)
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched length did not panic")
		}
	}()
	a.And(b)
}

func TestForEachSet(t *testing.T) {
	s := New(130)
	want := []uint64{0, 63, 64, 129}
	for _, i := range want {
		s.Set(i)
	}
	var got []uint64
	s.ForEachSet(func(i uint64) bool {
		got = append(got, i)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Early stop.
	count := 0
	s.ForEachSet(func(uint64) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("early stop visited %d, want 2", count)
	}
}

func TestForEachClear(t *testing.T) {
	s := New(67)
	s.Fill()
	s.Clear(1)
	s.Clear(66)
	var got []uint64
	s.ForEachClear(func(i uint64) bool {
		got = append(got, i)
		return true
	})
	if len(got) != 2 || got[0] != 1 || got[1] != 66 {
		t.Fatalf("ForEachClear got %v", got)
	}
}

func TestForEachClearDoesNotExceedLen(t *testing.T) {
	// n not a multiple of 64: tail bits of the last word must not be
	// reported as clear.
	s := New(65)
	var got []uint64
	s.ForEachClear(func(i uint64) bool {
		got = append(got, i)
		return true
	})
	if len(got) != 65 {
		t.Fatalf("ForEachClear visited %d bits, want 65", len(got))
	}
	if got[len(got)-1] != 64 {
		t.Fatalf("last clear bit = %d, want 64", got[len(got)-1])
	}
}

func TestCloneEqual(t *testing.T) {
	s := New(100)
	s.Set(42)
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Set(43)
	if s.Equal(c) {
		t.Fatal("mutating clone affected equality")
	}
	if s.Test(43) {
		t.Fatal("mutating clone mutated original")
	}
	if s.Equal(New(101)) {
		t.Fatal("Equal across different lengths")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, n := range []uint64{1, 64, 65, 1000} {
		s := New(n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := uint64(0); i < n/3+1; i++ {
			s.Set(uint64(rng.Int63n(int64(n))))
		}
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var d Set
		if err := d.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if !s.Equal(&d) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	var s Set
	if err := s.UnmarshalBinary([]byte{1, 2, 3}); err != ErrCorrupt {
		t.Fatalf("short input: err = %v, want ErrCorrupt", err)
	}
	good, _ := New(100).MarshalBinary()
	if err := s.UnmarshalBinary(good[:len(good)-1]); err != ErrCorrupt {
		t.Fatalf("truncated input: err = %v, want ErrCorrupt", err)
	}
	// A length whose word count wraps to zero: no words cannot hold it.
	if err := s.UnmarshalBinary(binary.LittleEndian.AppendUint64(nil, 1<<64-1)); err != ErrCorrupt {
		t.Fatalf("length 2⁶⁴−1 with no words: err = %v, want ErrCorrupt", err)
	}
	for _, n := range []uint64{1, 64, 65, 1000} {
		if data, _ := New(n).MarshalBinary(); uint64(len(data)) != EncodedLen(n) {
			t.Fatalf("n=%d: %d bytes encoded, EncodedLen says %d", n, len(data), EncodedLen(n))
		}
	}
}

func TestString(t *testing.T) {
	s := New(4)
	s.Set(1)
	s.Set(3)
	if got := s.String(); got != "0101" {
		t.Fatalf("String = %q, want 0101", got)
	}
	long := New(200)
	if got := long.String(); len(got) != 131 {
		t.Fatalf("long String len = %d, want 131", len(got))
	}
}

func TestSizeBytes(t *testing.T) {
	if got := New(64).SizeBytes(); got != 8 {
		t.Fatalf("SizeBytes(64) = %d, want 8", got)
	}
	if got := New(65).SizeBytes(); got != 16 {
		t.Fatalf("SizeBytes(65) = %d, want 16", got)
	}
}

// Property: Count equals the number of distinct indices set.
func TestQuickCountMatchesDistinct(t *testing.T) {
	f := func(idx []uint16) bool {
		s := New(1 << 16)
		seen := map[uint16]bool{}
		for _, i := range idx {
			s.Set(uint64(i))
			seen[i] = true
		}
		return s.Count() == uint64(len(seen))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan-ish — popcount(a AND b) + popcount(a OR b) ==
// popcount(a) + popcount(b).
func TestQuickInclusionExclusion(t *testing.T) {
	f := func(ai, bi []uint16) bool {
		a, b := New(1<<16), New(1<<16)
		for _, i := range ai {
			a.Set(uint64(i))
		}
		for _, i := range bi {
			b.Set(uint64(i))
		}
		return a.And(b).Count()+a.Or(b).Count() == a.Count()+b.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: AndCount agrees with And().Count() and AndAny with Count>0.
func TestQuickAndCountConsistent(t *testing.T) {
	f := func(ai, bi []uint16) bool {
		a, b := New(1<<16), New(1<<16)
		for _, i := range ai {
			a.Set(uint64(i))
		}
		for _, i := range bi {
			b.Set(uint64(i))
		}
		cnt := a.And(b).Count()
		return a.AndCount(b) == cnt && a.AndAny(b) == (cnt > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: serialization round-trips.
func TestQuickMarshalRoundTrip(t *testing.T) {
	f := func(idx []uint16, extra uint8) bool {
		n := uint64(1<<16) + uint64(extra) // exercise non-word-aligned tails
		s := New(n)
		for _, i := range idx {
			s.Set(uint64(i))
		}
		data, err := s.MarshalBinary()
		if err != nil {
			return false
		}
		var d Set
		if err := d.UnmarshalBinary(data); err != nil {
			return false
		}
		return s.Equal(&d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAndCount times one AND-popcount of a query against a node's
// vector at the two filter sizes the served shapes plan: 27k (m = 27 392,
// mixed_wal and point_http) and 273k (m = 273 404, batch_bin). The query
// meets 511 vectors, a depth-8 tree's nodes, in a stride order, so that as
// in a descent the vector it reads is seldom one the last few calls read.
func BenchmarkAndCount(b *testing.B) {
	for _, size := range []struct {
		name string
		m    uint64
	}{{"27k", 27_392}, {"273k", 273_404}} {
		b.Run(size.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			random := func() *Set {
				words := make([]uint64, (size.m+63)/64)
				for i := range words {
					words[i] = rng.Uint64()
				}
				return FromWords(size.m, words)
			}
			q := random()
			nodes := make([]*Set, 511)
			for i := range nodes {
				nodes[i] = random()
			}
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i, j = i+1, (j+97)%len(nodes) {
				benchSink += q.AndCount(nodes[j])
			}
		})
	}
}

var benchSink uint64

// recount is the popcount Count must agree with, taken bit by bit so it
// shares nothing with the remembered value.
func recount(s *Set) uint64 {
	var c uint64
	for i := uint64(0); i < s.Len(); i++ {
		if s.Test(i) {
			c++
		}
	}
	return c
}

// TestCountSurvivesEveryMutator asks for the count (so it is remembered),
// runs one mutator, and asks again: a mutator that forgot to invalidate
// would answer with the stale number.
func TestCountSurvivesEveryMutator(t *testing.T) {
	const n = 333 // not a multiple of 64: the masked tail is in play
	other := New(n)
	for i := uint64(0); i < n; i += 5 {
		other.Set(i)
	}
	mutators := []struct {
		name string
		do   func(s *Set) *Set // returns the vector to check (s unless the op builds a new one)
	}{
		{"Set", func(s *Set) *Set { s.Set(1); return s }},
		{"Set(already set)", func(s *Set) *Set { s.Set(0); return s }},
		{"SetAll", func(s *Set) *Set { s.SetAll([]uint64{1, 0, 2, 1}); return s }},
		{"SetAll(already set)", func(s *Set) *Set { s.SetAll([]uint64{0, 3}); return s }},
		{"Clear", func(s *Set) *Set { s.Clear(0); return s }},
		{"Clear(already clear)", func(s *Set) *Set { s.Clear(1); return s }},
		{"Reset", func(s *Set) *Set { s.Reset(); return s }},
		{"Fill", func(s *Set) *Set { s.Fill(); return s }},
		{"UnmarshalBinary", func(s *Set) *Set {
			data, _ := other.MarshalBinary()
			if err := s.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"Clone", func(s *Set) *Set { return s.Clone() }},
		{"Clone then Set", func(s *Set) *Set { c := s.Clone(); c.Set(1); return c }},
		{"And", func(s *Set) *Set { return s.And(other) }},
		{"Or", func(s *Set) *Set { return s.Or(other) }},
		{"FromWords", func(s *Set) *Set {
			words := make([]uint64, (n+63)/64)
			for i := range words {
				words[i] = ^uint64(0) // tail bits beyond n must not be counted
			}
			return FromWords(n, words)
		}},
	}
	for _, m := range mutators {
		t.Run(m.name, func(t *testing.T) {
			s := New(n)
			for i := uint64(0); i < n; i += 3 {
				s.Set(i)
			}
			if got, want := s.Count(), recount(s); got != want {
				t.Fatalf("before: Count = %d, recount = %d", got, want)
			}
			before := s.Count()
			r := m.do(s)
			if got, want := r.Count(), recount(r); got != want {
				t.Fatalf("after %s: Count = %d, recount = %d (was %d)", m.name, got, want, before)
			}
			if got, want := r.Count(), recount(r); got != want { // the remembered answer
				t.Fatalf("second Count after %s = %d, recount = %d", m.name, got, want)
			}
		})
	}
}

// TestCountConcurrentReaders has eight goroutines ask one shared,
// never-mutated vector for its count at once; under -race this is the
// proof that publishing the remembered value is not a data race.
func TestCountConcurrentReaders(t *testing.T) {
	s := New(100_003)
	other := New(100_003)
	for i := uint64(0); i < s.Len(); i += 7 {
		s.Set(i)
		other.Set(i / 2)
	}
	want, wantAnd := recount(s), s.And(other).Count()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := s.Count(); got != want {
					t.Errorf("Count = %d, want %d", got, want)
					return
				}
				if got := s.AndCount(other); got != wantAnd {
					t.Errorf("AndCount = %d, want %d", got, wantAnd)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestAndOrExactAllocation(t *testing.T) {
	s := New(130) // 3 words, 2 tail bits
	u := New(130)
	s.Set(0)
	s.Set(129)
	u.Set(129)
	and := s.And(u)
	or := s.Or(u)
	if and.Len() != 130 || or.Len() != 130 {
		t.Fatalf("result lengths %d/%d, want 130", and.Len(), or.Len())
	}
	if len(and.words) != len(s.words) || len(or.words) != len(s.words) {
		t.Fatalf("result words %d/%d, want %d", len(and.words), len(or.words), len(s.words))
	}
	if and.Count() != 1 || !and.Test(129) {
		t.Fatalf("AND wrong: %v", and)
	}
	if or.Count() != 2 || !or.Test(0) || !or.Test(129) {
		t.Fatalf("OR wrong: %v", or)
	}
}

func TestTestAll(t *testing.T) {
	s := New(256)
	for _, i := range []uint64{0, 1, 63, 64, 65, 200, 255} {
		s.Set(i)
	}
	cases := []struct {
		positions []uint64
		want      bool
	}{
		{nil, true},
		{[]uint64{0}, true},
		{[]uint64{0, 1, 63}, true},      // one word, merged mask
		{[]uint64{63, 64, 65}, true},    // word boundary crossing
		{[]uint64{0, 200, 255}, true},   // scattered words
		{[]uint64{0, 0, 1, 1}, true},    // duplicates
		{[]uint64{2}, false},            // single miss
		{[]uint64{0, 1, 2}, false},      // miss merged into a hit word
		{[]uint64{0, 66, 200}, false},   // miss in a later word
		{[]uint64{255, 254}, false},     // hit then miss, same word
		{[]uint64{200, 0, 64, 1}, true}, // unsorted hits
	}
	for _, c := range cases {
		if got := s.TestAll(c.positions); got != c.want {
			t.Fatalf("TestAll(%v) = %v, want %v", c.positions, got, c.want)
		}
	}
}

// TestAll must agree with k individual Test calls on random inputs.
func TestTestAllMatchesTest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New(1000)
	for i := 0; i < 300; i++ {
		s.Set(rng.Uint64() % 1000)
	}
	pos := make([]uint64, 5)
	for trial := 0; trial < 2000; trial++ {
		for i := range pos {
			pos[i] = rng.Uint64() % 1000
		}
		want := true
		for _, p := range pos {
			if !s.Test(p) {
				want = false
				break
			}
		}
		if got := s.TestAll(pos); got != want {
			t.Fatalf("TestAll(%v) = %v, Test-loop = %v", pos, got, want)
		}
	}
}

func TestTestAllOutOfRangePanics(t *testing.T) {
	s := New(100)
	s.Set(5)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range position not detected")
		}
	}()
	s.TestAll([]uint64{5, 100})
}

// TestSetAllMatchesSet holds SetAll to a Set of each position, on vectors
// whose popcount was remembered before the call, with positions repeated,
// in one word and across the masked tail.
func TestSetAllMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 1000
	for trial := 0; trial < 500; trial++ {
		got, want := New(n), New(n)
		for range 50 {
			x := rng.Uint64() % n
			got.Set(x)
			want.Set(x)
		}
		got.Count()
		want.Count()
		pos := make([]uint64, rng.Intn(20))
		for i := range pos {
			if i > 0 && rng.Intn(3) == 0 {
				pos[i] = pos[i-1] ^ uint64(rng.Intn(8)) // often the same word
			} else {
				pos[i] = rng.Uint64() % n
			}
			pos[i] %= n
		}
		got.SetAll(pos)
		for _, p := range pos {
			want.Set(p)
		}
		if !got.Equal(want) || got.Count() != want.Count() || got.Count() != recount(got) {
			t.Fatalf("SetAll(%v): Count %d, per-bit Set %d, recount %d", pos, got.Count(), want.Count(), recount(got))
		}
	}
}

func TestSetAllOutOfRangePanics(t *testing.T) {
	s := New(100)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range position not detected")
		}
	}()
	s.SetAll([]uint64{5, 100})
}
