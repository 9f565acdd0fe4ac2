package setdb

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
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
	// "a" and "b"/"dyn" may or may not share shards, but group commit
	// must publish at most one snapshot per touched shard — strictly
	// fewer publishes than writes.
	if st.StatePublishes >= st.StateWrites {
		t.Fatalf("StatePublishes = %d, want < StateWrites = %d (group commit)", st.StatePublishes, st.StateWrites)
	}
	if st.StateBytesCopied == 0 || st.MeanBytesCopiedPerWrite <= 0 {
		t.Fatalf("write-amplification accounting missing: %+v", st)
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
	if after.StateWrites != before.StateWrites || after.StatePublishes != before.StatePublishes {
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
	before := db.Stats()
	// A delete-miss in the same (and in a different) shard must neither
	// publish nor copy anything.
	if db.Delete("absent") {
		t.Fatal("Delete of absent key returned true")
	}
	after := db.Stats()
	if after.StateBytesCopied != before.StateBytesCopied || after.StatePublishes != before.StatePublishes {
		t.Fatalf("delete-miss copied state: %+v -> %+v", before, after)
	}
	if !db.Delete("present") {
		t.Fatal("Delete of present key returned false")
	}
	if db.Len() != 0 {
		t.Fatalf("Len = %d after delete", db.Len())
	}
}

// TestWriteAmplificationBounded pins the write-amplification claim of
// the chunked map: at high single-shard occupancy, one write must
// copy several times less state than the old whole-shard flat map clone
// would have.
func TestWriteAmplificationBounded(t *testing.T) {
	db, err := Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	const nKeys = 8192
	var keys []string
	var flatBytes uint64
	batch := make([]Write, 0, 1024)
	for i := 0; len(keys) < nKeys; i++ {
		k := "k" + strconv.Itoa(i)
		if shardIndex(k) != 0 {
			continue
		}
		keys = append(keys, k)
		flatBytes += entryCopyBytes(len(k))
		batch = append(batch, Write{Key: k, IDs: []uint64{uint64(i) % 4096}})
		if len(batch) == cap(batch) {
			if err := db.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if err := db.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	const writes = 64
	before := db.Stats()
	for i := 0; i < writes; i++ {
		if err := db.Add(keys[i*97%len(keys)], uint64(i)%4096); err != nil {
			t.Fatal(err)
		}
	}
	after := db.Stats()
	perWrite := float64(after.StateBytesCopied-before.StateBytesCopied) / writes
	if ratio := float64(flatBytes) / perWrite; ratio < 5 {
		t.Fatalf("chunked write copies %.0f B at %d keys/shard — only %.1fx below the flat clone's %d B, want >= 5x",
			perWrite, nKeys, ratio, flatBytes)
	}
}

func TestStatsChunkOccupancy(t *testing.T) {
	db, err := Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		if err := db.Add(fmt.Sprintf("key-%d", i), uint64(i)%4096); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.MaxChunksPerShard != maxChunks {
		t.Fatalf("MaxChunksPerShard = %d, want %d", st.MaxChunksPerShard, maxChunks)
	}
	occupied, maxChunk, total := 0, 0, 0
	for _, ss := range st.Shards {
		occupied += ss.OccupiedChunks
		total += ss.Chunks
		if ss.MaxChunkKeys > maxChunk {
			maxChunk = ss.MaxChunkKeys
		}
		if ss.OccupiedChunks > ss.Chunks {
			t.Fatalf("shard reports %d occupied chunks of %d allocated", ss.OccupiedChunks, ss.Chunks)
		}
		if ss.Chunks > 2*maxChunks {
			t.Fatalf("shard reports %d chunks, cap is %d per kind", ss.Chunks, maxChunks)
		}
	}
	if occupied == 0 || maxChunk == 0 {
		t.Fatalf("chunk occupancy not reported: occupied=%d max=%d", occupied, maxChunk)
	}
	if total != st.TotalChunks {
		t.Fatalf("TotalChunks = %d, shard sum = %d", st.TotalChunks, total)
	}
	if st.StateWrites != 512 || st.StatePublishes != 512 {
		t.Fatalf("single-write counters off: writes=%d publishes=%d", st.StateWrites, st.StatePublishes)
	}
}

// TestConcurrentApplyBatch exercises group commits racing single writes
// and lock-free readers across overlapping shards (run under -race).
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
	st := db.Stats()
	if st.StatePublishes >= st.StateWrites {
		t.Fatalf("batches did not coalesce publishes: writes=%d publishes=%d", st.StateWrites, st.StatePublishes)
	}
	for w := 0; w < 4; w++ {
		if ok, err := db.Contains(fmt.Sprintf("dyn%d", w), 39); err != nil || !ok {
			t.Fatalf("dyn%d lost writes (ok=%v err=%v)", w, ok, err)
		}
	}
}
