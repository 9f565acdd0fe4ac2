package bloom

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/hashfam"
)

func fam(t testing.TB, m uint64) hashfam.Family {
	t.Helper()
	return hashfam.MustNew(hashfam.KindMurmur3, m, 3, 1)
}

func TestAddContains(t *testing.T) {
	f := New(fam(t, 10000))
	xs := []uint64{0, 1, 42, 999999, 1 << 40}
	for _, x := range xs {
		if f.Contains(x) && f.Empty() {
			t.Fatalf("empty filter contains %d", x)
		}
	}
	for _, x := range xs {
		f.Add(x)
	}
	for _, x := range xs {
		if !f.Contains(x) {
			t.Fatalf("no false negatives allowed: missing %d", x)
		}
	}
	if f.Insertions() != uint64(len(xs)) {
		t.Fatalf("Insertions = %d, want %d", f.Insertions(), len(xs))
	}
}

func TestEmptyReset(t *testing.T) {
	f := New(fam(t, 1000))
	if !f.Empty() {
		t.Fatal("new filter not empty")
	}
	f.Add(7)
	if f.Empty() {
		t.Fatal("filter empty after Add")
	}
	f.Reset()
	if !f.Empty() || f.Insertions() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestNoFalseNegativesProperty(t *testing.T) {
	fn := func(xs []uint64) bool {
		f := New(hashfam.MustNew(hashfam.KindFast, 4096, 3, 9))
		for _, x := range xs {
			f.Add(x)
		}
		for _, x := range xs {
			if !f.Contains(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFalsePositiveRateEmpirical(t *testing.T) {
	// m chosen for ~1% FP at n=1000, k=3. Empirical rate should be within
	// 3x of theory.
	n := uint64(1000)
	p, err := PlanParams(0.9, n, 1_000_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := New(fam(t, p.Bits))
	for x := uint64(0); x < n; x++ {
		f.Add(x)
	}
	trials := 200000
	fp := 0
	for i := 0; i < trials; i++ {
		if f.Contains(n + uint64(i)) {
			fp++
		}
	}
	got := float64(fp) / float64(trials)
	want := FalsePositiveRate(p.Bits, 3, n)
	if got > want*3+1e-9 || (want > 1e-4 && got < want/3) {
		t.Fatalf("empirical FP %.6f vs theoretical %.6f", got, want)
	}
}

func TestUnionSemantics(t *testing.T) {
	fm := fam(t, 50000)
	a := NewFromElements(fm, []uint64{1, 2, 3})
	b := NewFromElements(fm, []uint64{100, 200})
	u, err := a.Union(b)
	if err != nil {
		t.Fatal(err)
	}
	// B(A∪B) must equal B(A) OR B(B) exactly (§3.1): compare to filter
	// built from the union set.
	direct := NewFromElements(fm, []uint64{1, 2, 3, 100, 200})
	if !u.Equal(direct) {
		t.Fatal("union filter differs from filter of union set")
	}
	if u.Insertions() != 5 {
		t.Fatalf("union Insertions = %d", u.Insertions())
	}
}

func TestIntersectContainsSharedElements(t *testing.T) {
	fm := fam(t, 100000)
	a := NewFromElements(fm, []uint64{1, 2, 3, 50})
	b := NewFromElements(fm, []uint64{50, 60, 70})
	i, err := a.Intersect(b)
	if err != nil {
		t.Fatal(err)
	}
	// The AND filter contains every element of the true intersection
	// (it may contain more).
	if !i.Contains(50) {
		t.Fatal("intersection lost shared element 50")
	}
}

func TestIncompatibleCombinations(t *testing.T) {
	a := New(hashfam.MustNew(hashfam.KindMurmur3, 1000, 3, 1))
	cases := []*Filter{
		New(hashfam.MustNew(hashfam.KindMurmur3, 2000, 3, 1)), // different m
		New(hashfam.MustNew(hashfam.KindMurmur3, 1000, 4, 1)), // different k
		New(hashfam.MustNew(hashfam.KindMurmur3, 1000, 3, 2)), // different seed
		New(hashfam.MustNew(hashfam.KindFast, 1000, 3, 1)),    // different kind
	}
	for i, b := range cases {
		if _, err := a.Union(b); err == nil {
			t.Fatalf("case %d: Union accepted incompatible filters", i)
		}
		if _, err := a.Intersect(b); err == nil {
			t.Fatalf("case %d: Intersect accepted incompatible filters", i)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	f := New(fam(t, 1000))
	f.Add(1)
	c := f.Clone()
	c.Add(2)
	if !c.Contains(2) {
		t.Fatal("clone missing added element")
	}
	if f.Equal(c) {
		t.Fatal("clone mutation affected original equality")
	}
}

func TestIntersectionSetBitsMatchesIntersect(t *testing.T) {
	fm := fam(t, 20000)
	rng := rand.New(rand.NewSource(3))
	a, b := New(fm), New(fm)
	for i := 0; i < 500; i++ {
		a.Add(rng.Uint64() % 100000)
		b.Add(rng.Uint64() % 100000)
	}
	i, _ := a.Intersect(b)
	if a.Bits().AndCount(b.Bits()) != i.SetBits() {
		t.Fatal("the AND count of the bit vectors disagrees with Intersect().SetBits()")
	}
	if a.IntersectsAny(b) != (i.SetBits() > 0) {
		t.Fatal("IntersectsAny disagrees")
	}
}

func TestEstimateCardinalityAccurate(t *testing.T) {
	for _, n := range []uint64{100, 1000, 5000} {
		p, err := PlanParams(0.9, n, 1_000_000, 3)
		if err != nil {
			t.Fatal(err)
		}
		f := New(fam(t, p.Bits))
		for x := uint64(0); x < n; x++ {
			f.Add(x * 7919)
		}
		est := f.EstimateCardinality()
		if math.Abs(est-float64(n)) > 0.1*float64(n) {
			t.Fatalf("n=%d: estimate %.1f off by more than 10%%", n, est)
		}
	}
}

func TestEstimateCardinalityEdges(t *testing.T) {
	if got := EstimateCardinalityFromCounts(100, 3, 100); got != 0 {
		t.Fatalf("empty filter estimate = %v, want 0", got)
	}
	if got := EstimateCardinalityFromCounts(100, 3, 0); !math.IsInf(got, 1) {
		t.Fatalf("saturated filter estimate = %v, want +Inf", got)
	}
}

func TestEstimateIntersectionDisjointNearZero(t *testing.T) {
	n := uint64(1000)
	p, _ := PlanParams(0.9, n, 1_000_000, 3)
	fm := fam(t, p.Bits)
	a, b := New(fm), New(fm)
	for x := uint64(0); x < n; x++ {
		a.Add(x)
		b.Add(1_000_000 + x)
	}
	est := EstimateIntersectionOf(a, b)
	if est > float64(n)/10 {
		t.Fatalf("disjoint sets: intersection estimate %.1f too large", est)
	}
}

func TestEstimateIntersectionOverlapping(t *testing.T) {
	n := uint64(2000)
	overlap := uint64(500)
	p, _ := PlanParams(0.9, n, 1_000_000, 3)
	fm := fam(t, p.Bits)
	a, b := New(fm), New(fm)
	for x := uint64(0); x < n; x++ {
		a.Add(x)
		b.Add(x + n - overlap) // shares [n-overlap, n)
	}
	est := EstimateIntersectionOf(a, b)
	if math.Abs(est-float64(overlap)) > 0.35*float64(overlap) {
		t.Fatalf("overlap estimate %.1f, want ~%d", est, overlap)
	}
}

func TestEstimateIntersectionEdges(t *testing.T) {
	if got := EstimateIntersection(1000, 3, 10, 10, 0); got != 0 {
		t.Fatalf("empty AND estimate = %v, want 0", got)
	}
	// Saturated filters fall back to AND-based cardinality.
	if got := EstimateIntersection(1000, 3, 1000, 1000, 1000); !math.IsInf(got, 1) {
		t.Fatalf("saturated estimate = %v, want +Inf", got)
	}
	// Never negative.
	if got := EstimateIntersection(1000, 3, 1, 1, 1); got < 0 {
		t.Fatalf("estimate negative: %v", got)
	}
}

func TestFalsePositiveRateFormula(t *testing.T) {
	// Known anchor: m=60870, k=3, n=1000 → FP ≈ 1.11e-4 (back-solved from
	// the paper's Table 2, accuracy 0.9).
	got := FalsePositiveRate(60870, 3, 1000)
	if got < 0.9e-4 || got > 1.3e-4 {
		t.Fatalf("FP = %v, want ~1.11e-4", got)
	}
	if FalsePositiveRate(0, 3, 10) != 1 {
		t.Fatal("m=0 should give FP=1")
	}
	if FalsePositiveRate(1000, 3, 0) != 0 {
		t.Fatal("n=0 should give FP=0")
	}
}

func TestFalseSetOverlapProbMonotone(t *testing.T) {
	// FSO probability grows with set sizes and shrinks with m.
	p1 := FalseSetOverlapProb(10000, 3, 10, 10)
	p2 := FalseSetOverlapProb(10000, 3, 100, 100)
	p3 := FalseSetOverlapProb(100000, 3, 100, 100)
	if !(p1 < p2) {
		t.Fatalf("FSO not increasing in n: %v vs %v", p1, p2)
	}
	if !(p3 < p2) {
		t.Fatalf("FSO not decreasing in m: %v vs %v", p3, p2)
	}
	if p := FalseSetOverlapProb(10000, 3, 0, 10); p != 0 {
		t.Fatalf("FSO with empty set = %v, want 0", p)
	}
}

func TestFalseSetOverlapEmpirical(t *testing.T) {
	// Empirically measure FSO frequency and compare with Eq. (1).
	const m, k = 2000, 3
	const n1, n2 = 10, 10
	trials := 3000
	hits := 0
	for i := 0; i < trials; i++ {
		fm := hashfam.MustNew(hashfam.KindFast, m, k, uint64(i))
		a, b := New(fm), New(fm)
		for x := uint64(0); x < n1; x++ {
			a.Add(x)
			b.Add(1000 + x)
		}
		if a.IntersectsAny(b) {
			hits++
		}
	}
	got := float64(hits) / float64(trials)
	want := FalseSetOverlapProb(m, k, n1, n2)
	if math.Abs(got-want) > 0.12 {
		t.Fatalf("empirical FSO %.3f vs Eq.(1) %.3f", got, want)
	}
}

func TestAccuracyModel(t *testing.T) {
	// acc = n/(n+(M−n)FP); FP=0 → acc=1; n=0 → 0.
	if Accuracy(1000, 1_000_000, 0) != 1 {
		t.Fatal("zero-FP accuracy != 1")
	}
	if Accuracy(0, 100, 0.5) != 0 {
		t.Fatal("empty-set accuracy != 0")
	}
	got := Accuracy(1000, 1_000_000, 1.112e-4)
	if math.Abs(got-0.9) > 0.01 {
		t.Fatalf("accuracy = %v, want ~0.9", got)
	}
}

// PlanParams must reproduce the paper's Table 2 and Table 3 m values
// within ~1% (they were derived with the same formulas).
func TestPlanParamsMatchesPaperTables(t *testing.T) {
	cases := []struct {
		acc   float64
		M     uint64
		wantM uint64
	}{
		{0.5, 1_000_000, 28465},
		{0.6, 1_000_000, 32808},
		{0.7, 1_000_000, 38259},
		{0.8, 1_000_000, 46000},
		{0.9, 1_000_000, 60870},
		{1.0, 1_000_000, 137230},
		{0.5, 10_000_000, 63120},
		{0.6, 10_000_000, 72475},
		{0.7, 10_000_000, 84215},
		{0.8, 10_000_000, 101090},
		{0.9, 10_000_000, 132933},
		{1.0, 10_000_000, 297485},
	}
	for _, c := range cases {
		p, err := PlanParams(c.acc, 1000, c.M, 3)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(float64(p.Bits)-float64(c.wantM)) / float64(c.wantM)
		if rel > 0.015 {
			t.Errorf("acc=%.1f M=%d: m=%d, paper %d (%.2f%% off)",
				c.acc, c.M, p.Bits, c.wantM, rel*100)
		}
	}
}

func TestPlanParamsErrors(t *testing.T) {
	if _, err := PlanParams(0.9, 0, 100, 3); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := PlanParams(0.9, 100, 100, 3); err == nil {
		t.Fatal("M<=n accepted")
	}
	if _, err := PlanParams(0, 10, 100, 3); err == nil {
		t.Fatal("accuracy 0 accepted")
	}
	if _, err := PlanParams(1.5, 10, 100, 3); err == nil {
		t.Fatal("accuracy >1 accepted")
	}
	if _, err := PlanParams(0.9, 10, 100, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestBitsForFPPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BitsForFP(0) did not panic")
		}
	}()
	BitsForFP(0, 10, 3)
}

// Property: planned parameters achieve (analytically) at least the
// requested accuracy.
func TestQuickPlannedAccuracyAchieved(t *testing.T) {
	f := func(accSeed uint16, nSeed uint16) bool {
		acc := 0.5 + float64(accSeed%50)/100.0 // 0.5..0.99
		n := uint64(nSeed%5000) + 10
		M := n * 1000
		p, err := PlanParams(acc, n, M, 3)
		if err != nil {
			return false
		}
		realized := Accuracy(n, M, FalsePositiveRate(p.Bits, 3, n))
		return realized >= acc-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachSetClearBit(t *testing.T) {
	fm := fam(t, 500)
	f := NewFromElements(fm, []uint64{1, 2, 3})
	var set, clear int
	f.ForEachSetBit(func(uint64) bool { set++; return true })
	f.ForEachClearBit(func(uint64) bool { clear++; return true })
	if uint64(set) != f.SetBits() {
		t.Fatalf("set-bit iteration count %d != SetBits %d", set, f.SetBits())
	}
	if uint64(set+clear) != f.M() {
		t.Fatalf("set+clear = %d, want %d", set+clear, f.M())
	}
}

func BenchmarkAdd(b *testing.B) {
	f := New(hashfam.MustNew(hashfam.KindMurmur3, 60870, 3, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(uint64(i))
	}
}

// BenchmarkNewFromElements builds a filter of 1 000 uniform ids on the
// point_http key shape (m = 27 341, k = 3, the fast family): a new key's
// value, whose bits AddMany sets a probe block at a time.
func BenchmarkNewFromElements(b *testing.B) {
	fam := hashfam.MustNew(hashfam.KindFast, 27_341, 3, 1)
	rng := rand.New(rand.NewSource(1))
	ids := make([]uint64, 1000)
	for i := range ids {
		ids[i] = uint64(rng.Int63n(100_000))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewFromElements(fam, ids)
	}
}

func BenchmarkContains(b *testing.B) {
	f := New(hashfam.MustNew(hashfam.KindMurmur3, 60870, 3, 1))
	for i := 0; i < 1000; i++ {
		f.Add(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Contains(uint64(i))
	}
}

func BenchmarkEstimateIntersectionOf(b *testing.B) {
	fm := hashfam.MustNew(hashfam.KindMurmur3, 60870, 3, 1)
	x := New(fm)
	y := New(fm)
	for i := 0; i < 1000; i++ {
		x.Add(uint64(i))
		y.Add(uint64(i + 500))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = EstimateIntersectionOf(x, y)
	}
}

// TestContainsConcurrent is the data-race regression test for the
// scratch-buffer removal: a single Filter must serve unsynchronized
// concurrent Contains / estimator calls (run under -race).
func TestContainsConcurrent(t *testing.T) {
	fm := fam(t, 60870)
	f := New(fm)
	g := New(fm)
	for i := 0; i < 2000; i++ {
		f.Add(uint64(i))
		g.Add(uint64(i + 1000))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				x := uint64((w*5000 + i) % 4000)
				got := f.Contains(x)
				if x < 2000 && !got {
					t.Errorf("false negative for %d", x)
					return
				}
				if i%100 == 0 {
					EstimateIntersectionOf(f, g)
					f.Bits().AndCount(g.Bits())
					f.EstimateCardinality()
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCountingContainsConcurrent covers the counting filter's shared
// read path the same way.
func TestCountingContainsConcurrent(t *testing.T) {
	c := NewCounting(fam(t, 60870))
	for i := 0; i < 1000; i++ {
		c.Add(uint64(i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				x := uint64((w*3000 + i) % 2000)
				if x < 1000 && !c.Contains(x) {
					t.Errorf("false negative for %d", x)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestEstimateIntersectionOfMatchesSlowPath pins the one-pass estimate to
// the definitional computation from three independently taken popcounts,
// bit for bit (the descent compares estimates with thresholds and divides
// them, so "close" would not keep draws identical), on random pairs of
// every overlap and fill — including saturated filters, which take the
// estimator's guard branch, and the empty AND, which takes the early
// return.
func TestEstimateIntersectionOfMatchesSlowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		fm := fam(t, uint64(64+rng.Intn(5000)))
		a, b := New(fm), New(fm)
		na, nb, shift := rng.Intn(3000), rng.Intn(3000), rng.Intn(4000)
		for i := 0; i < na; i++ {
			a.Add(uint64(i))
		}
		for i := 0; i < nb; i++ {
			b.Add(uint64(i + shift))
		}
		count := func(f *Filter) (c uint64) {
			f.ForEachSetBit(func(uint64) bool { c++; return true })
			return c
		}
		and, err := a.Intersect(b)
		if err != nil {
			t.Fatal(err)
		}
		want := EstimateIntersection(a.M(), a.K(), count(a), count(b), count(and))
		for pass := 0; pass < 2; pass++ { // second pass answers from the remembered counts
			if got := EstimateIntersectionOf(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d (m=%d, %d and %d ids, shift %d) pass %d: one-pass estimate %v != definitional %v",
					trial, a.M(), na, nb, shift, pass, got, want)
			}
		}
	}
	a := NewFromElements(fam(t, 60870), []uint64{1, 2, 3})
	if est := EstimateIntersectionOf(a, New(a.Family())); est != 0 {
		t.Fatalf("estimate vs empty filter = %v, want 0", est)
	}
}

// TestEstimateIntersectionOfConcurrentReaders shares one published pair of
// filters among eight goroutines that all estimate at once: the first
// estimates race to publish the remembered popcounts, which must be
// invisible to -race and to the result.
func TestEstimateIntersectionOfConcurrentReaders(t *testing.T) {
	fm := fam(t, 60870)
	a, b := New(fm), New(fm)
	for i := 0; i < 800; i++ {
		a.Add(uint64(i))
		b.Add(uint64(i + 400))
	}
	want := EstimateIntersection(a.M(), a.K(), a.Clone().SetBits(), b.Clone().SetBits(), a.Bits().AndCount(b.Bits()))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if got := EstimateIntersectionOf(a, b); got != want {
					t.Errorf("estimate = %v, want %v", got, want)
					return
				}
				if got := a.SetBits(); got != a.Bits().Count() {
					t.Errorf("SetBits = %d", got)
					return
				}
			}
		}()
	}
	wg.Wait()
}
