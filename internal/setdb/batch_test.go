package setdb

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// smallOptions is a cheap fixture for state-machinery tests that don't
// need a realistic sampling profile.
func smallOptions() Options {
	return Options{Namespace: 4096, Bits: 512, K: 3, Seed: 11, TreeDepth: 6}
}

func TestApplyBatchGroupCommit(t *testing.T) {
	db, err := Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	writes := []Write{
		{Key: "a", IDs: []uint64{1, 2, 3}},
		{Key: "b", IDs: []uint64{4}},
		{Key: "dyn", IDs: []uint64{5, 6}, Dynamic: true},
		{Key: "a", IDs: []uint64{7}}, // same-key writes compose in order
	}
	if err := db.ApplyBatch(writes); err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{1, 2, 3, 7} {
		ok, err := db.Contains("a", id)
		if err != nil || !ok {
			t.Fatalf("a should contain %d (ok=%v err=%v)", id, ok, err)
		}
	}
	if ok, err := db.Contains("b", 4); err != nil || !ok {
		t.Fatalf("b should contain 4 (ok=%v err=%v)", ok, err)
	}
	if ok, err := db.Contains("dyn", 5); err != nil || !ok {
		t.Fatalf("dyn should contain 5 (ok=%v err=%v)", ok, err)
	}
	st := db.Stats()
	if got := db.Len(); got != 3 || st.Sets != 2 || st.DynamicSets != 1 {
		t.Fatalf("Len = %d over %d plain and %d dynamic sets, want 3 over 2 and 1", got, st.Sets, st.DynamicSets)
	}
	if st.StateWrites != 4 {
		t.Fatalf("StateWrites = %d, want 4", st.StateWrites)
	}
	// Generations counts key lifetimes, not filter versions: three creates
	// (the fourth write went to an existing key), unmoved by a further add,
	// moved once by a delete and re-create.
	db.Add("b", 8)
	db.Delete("b")
	db.Add("b", 9)
	if got := db.Stats().Generations; st.Generations != 3 || got != 4 {
		t.Fatalf("Generations = %d after 3 creates and 1 further add, %d after 1 more add and a delete + re-create; want 3, then 4", st.Generations, got)
	}
}

func TestApplyBatchAllOrNothing(t *testing.T) {
	db, err := Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddDynamic("taken", 1); err != nil {
		t.Fatal(err)
	}
	before := db.Stats()
	err = db.ApplyBatch([]Write{
		{Key: "fresh", IDs: []uint64{2}},
		{Key: "taken", IDs: []uint64{3}}, // plain write onto a dynamic key
	})
	if !errors.Is(err, ErrKeyClash) {
		t.Fatalf("err = %v, want ErrKeyClash", err)
	}
	if _, cerr := db.Contains("fresh", 2); !errors.Is(cerr, ErrNoSet) {
		t.Fatalf("aborted batch leaked %q: %v", "fresh", cerr)
	}
	after := db.Stats()
	if after.StateWrites != before.StateWrites {
		t.Fatalf("aborted batch moved write counters: %+v -> %+v", before, after)
	}

	// Same for validation failures: one out-of-range id rejects the
	// whole batch before anything happens.
	err = db.ApplyBatch([]Write{
		{Key: "fresh", IDs: []uint64{2}},
		{Key: "fresh2", IDs: []uint64{1 << 40}},
	})
	if !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	if _, cerr := db.Contains("fresh", 2); !errors.Is(cerr, ErrNoSet) {
		t.Fatalf("invalid batch leaked %q: %v", "fresh", cerr)
	}
}

// TestGrownAsideBatchFailsWhole: a batch of core.GrowRun ids grows the
// pruned tree on a goroutine beside its build. When its last write fails
// with ErrKeyClash, the batch returns that error with nothing stored, the
// tree has grown by then (ids in the tree and in no filter cost occupancy,
// not correctness), and the goroutine it started is gone.
func TestGrownAsideBatchFailsWhole(t *testing.T) {
	opts := smallOptions()
	opts.Pruned = true
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddDynamic("taken", 1); err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, core.GrowRun)
	for i := range ids {
		ids[i] = uint64(i)
	}
	before, epoch, goroutines := db.Stats(), db.Tree().GrowthEpoch(), runtime.NumGoroutine()
	err = db.ApplyBatch([]Write{
		{Key: "fresh", IDs: ids},
		{Key: "fresh-dyn", IDs: ids[:10], Dynamic: true},
		{Key: "taken", IDs: []uint64{3}}, // plain write onto a dynamic key
	})
	if !errors.Is(err, ErrKeyClash) {
		t.Fatalf("err = %v, want ErrKeyClash", err)
	}
	if got := db.Tree().GrowthEpoch(); got != epoch+1 {
		t.Fatalf("the batch returned with the tree at growth epoch %d, want %d", got, epoch+1)
	}
	if keys := db.Keys(); !slices.Equal(keys, []string{"taken"}) {
		t.Fatalf("the failed batch stored keys: %v", keys)
	}
	if live := db.Membership("taken").Live(); live != 1 {
		t.Fatalf("the failed batch changed %q: it holds %d ids, want 1", "taken", live)
	}
	if after := db.Stats(); after.StateWrites != before.StateWrites || after.Generations != before.Generations {
		t.Fatalf("the failed batch moved write counters: %+v -> %+v", before, after)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() != goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the batch, %d before", runtime.NumGoroutine(), goroutines)
		}
	}
}

func TestApplyBatchEmptyAndAddMany(t *testing.T) {
	db, err := Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyBatch(nil); err != nil {
		t.Fatal(err)
	}
	if err := db.AddMany(Write{Key: "x", IDs: []uint64{9}}); err != nil {
		t.Fatal(err)
	}
	if ok, err := db.Contains("x", 9); err != nil || !ok {
		t.Fatalf("x should contain 9 (ok=%v err=%v)", ok, err)
	}
}

func TestApplyBatchGrowsPrunedTree(t *testing.T) {
	opts := smallOptions()
	opts.Pruned = true
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyBatch([]Write{
		{Key: "a", IDs: []uint64{10, 20, 30}},
		{Key: "d", IDs: []uint64{40}, Dynamic: true},
	}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	got := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		x, err := db.Sample("a", rng, nil)
		if err != nil {
			continue
		}
		got[x] = true
	}
	for _, id := range []uint64{10, 20, 30} {
		if !got[id] {
			t.Fatalf("id %d never sampled after batch insert into pruned tree (got %v)", id, got)
		}
	}
	if x, err := db.Sample("d", rng, nil); err != nil || x != 40 {
		t.Fatalf("Sample = %d, %v; want 40", x, err)
	}
}

func TestDeleteMissCopiesNothing(t *testing.T) {
	db, err := Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("present", 1); err != nil {
		t.Fatal(err)
	}
	if db.Delete("absent") {
		t.Fatal("Delete of absent key returned true")
	}
	if db.Len() != 1 {
		t.Fatalf("Len = %d after a delete-miss", db.Len())
	}
	if !db.Delete("present") {
		t.Fatal("Delete of present key returned false")
	}
	if db.Len() != 0 {
		t.Fatalf("Len = %d after delete", db.Len())
	}
}

// TestFailedBatchCreatesNoGeneration: a batch that creates a key and then
// fails stores nothing, so no key lifetime began.
func TestFailedBatchCreatesNoGeneration(t *testing.T) {
	db, err := Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	err = db.ApplyBatch([]Write{
		{Key: "new1", IDs: []uint64{1}},
		{Key: "absent", IDs: []uint64{5}, Dynamic: true, Remove: true},
	})
	if !errors.Is(err, ErrNoSet) {
		t.Fatalf("err = %v, want ErrNoSet", err)
	}
	if st := db.Stats(); db.Len() != 0 || st.Generations != 0 || st.StateWrites != 0 {
		t.Fatalf("failed batch left Len %d, Generations %d, StateWrites %d; want 0, 0, 0", db.Len(), st.Generations, st.StateWrites)
	}
}

// TestWriteCostIndependentOfKeyCount: a write allocates for the key it
// changes, not for the keys beside it. One-id dynamic adds into a database
// of 20 000 keys allocate at most 1.5× what the same adds do into one of 16.
func TestWriteCostIndependentOfKeyCount(t *testing.T) {
	perWrite := func(nKeys int) float64 {
		db, err := Open(smallOptions())
		if err != nil {
			t.Fatal(err)
		}
		populate(t, db, nKeys)
		// The adds cycle over 64 keys, as BenchmarkAddDynamicManyKeys does,
		// so no one counting filter fills up and its own copies dominate.
		dyn := make([]string, 64)
		for i := range dyn {
			dyn[i] = "dyn" + strconv.Itoa(i)
			if err := db.AddDynamic(dyn[i], uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		const writes = 2048
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < writes; i++ {
			if err := db.AddDynamic(dyn[i%len(dyn)], uint64(i)%4096); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / writes
	}
	small, large := perWrite(16), perWrite(20_000)
	if large > 1.5*small {
		t.Fatalf("a write allocates %.0f B at 20 000 keys against %.0f B at 16, want <= 1.5x", large, small)
	}
}

// TestConcurrentApplyBatch exercises group commits racing single writes
// and lock-free readers across overlapping keys (run under -race).
func TestConcurrentApplyBatch(t *testing.T) {
	db, err := Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := db.Add("seed-"+strconv.Itoa(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				writes := []Write{
					{Key: fmt.Sprintf("b%d-%d", w, i), IDs: []uint64{uint64(i)}},
					{Key: "seed-" + strconv.Itoa(i%64), IDs: []uint64{uint64(w*100 + i)}},
					{Key: fmt.Sprintf("dyn%d", w), IDs: []uint64{uint64(i)}, Dynamic: true},
				}
				if err := db.ApplyBatch(writes); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 400; i++ {
			key := "seed-" + strconv.Itoa(rng.Intn(64))
			if _, err := db.Sample(key, rng, nil); err != nil {
				continue // false-positive descents are fine; missing keys are not
			}
		}
	}()
	wg.Wait()
	for w := 0; w < 4; w++ {
		if ok, err := db.Contains(fmt.Sprintf("dyn%d", w), 39); err != nil || !ok {
			t.Fatalf("dyn%d lost writes (ok=%v err=%v)", w, ok, err)
		}
	}
}
