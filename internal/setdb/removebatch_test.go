package setdb

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bloom"
)

func TestApplyBatchMixedAddRemove(t *testing.T) {
	db, err := Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("gone", 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := db.AddDynamic("dyn", 10, 11, 12); err != nil {
		t.Fatal(err)
	}
	before := db.Stats()
	err = db.ApplyBatch([]Write{
		{Key: "kept", IDs: []uint64{5}},
		{Key: "gone", Remove: true},
		{Key: "dyn", IDs: []uint64{11}, Dynamic: true, Remove: true},
		{Key: "dyn", IDs: []uint64{13}, Dynamic: true}, // remove then add composes in order
		{Key: "miss", Remove: true},                    // delete-miss: silent no-op, like Delete
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok, cerr := db.Contains("kept", 5); cerr != nil || !ok {
		t.Fatalf("kept should contain 5 (ok=%v err=%v)", ok, cerr)
	}
	if _, cerr := db.Contains("gone", 1); !errors.Is(cerr, ErrNoSet) {
		t.Fatalf("gone should be deleted, got %v", cerr)
	}
	if ok, cerr := db.Contains("dyn", 11); cerr != nil || ok {
		t.Fatalf("dyn should have forgotten 11 (ok=%v err=%v)", ok, cerr)
	}
	for _, id := range []uint64{10, 12, 13} {
		if ok, cerr := db.Contains("dyn", id); cerr != nil || !ok {
			t.Fatalf("dyn should contain %d (ok=%v err=%v)", id, ok, cerr)
		}
	}
	after := db.Stats()
	if got := after.StateWrites - before.StateWrites; got != 5 {
		t.Fatalf("batch recorded %d writes, want 5", got)
	}
}

func TestApplyBatchRemoveAllOrNothing(t *testing.T) {
	db, err := Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddDynamic("dyn", 1); err != nil {
		t.Fatal(err)
	}
	before := db.Stats()

	// Removing a non-member id aborts the whole batch unpublished.
	err = db.ApplyBatch([]Write{
		{Key: "fresh", IDs: []uint64{2}},
		{Key: "dyn", IDs: []uint64{99}, Dynamic: true, Remove: true},
	})
	if !errors.Is(err, bloom.ErrNotMember) {
		t.Fatalf("err = %v, want ErrNotMember", err)
	}
	if _, cerr := db.Contains("fresh", 2); !errors.Is(cerr, ErrNoSet) {
		t.Fatalf("aborted batch leaked %q: %v", "fresh", cerr)
	}

	// A dynamic remove of an absent key aborts with ErrNoSet, matching
	// RemoveDynamic.
	err = db.ApplyBatch([]Write{
		{Key: "fresh", IDs: []uint64{2}},
		{Key: "absent", IDs: []uint64{1}, Dynamic: true, Remove: true},
	})
	if !errors.Is(err, ErrNoSet) {
		t.Fatalf("err = %v, want ErrNoSet", err)
	}

	// A remove carrying ids removes ids, with or without Dynamic: here there
	// is no set to remove them from.
	err = db.ApplyBatch([]Write{{Key: "dyn2", IDs: []uint64{1}, Remove: true}})
	if !errors.Is(err, ErrNoSet) {
		t.Fatalf("err = %v, want ErrNoSet", err)
	}

	after := db.Stats()
	if after.StateWrites != before.StateWrites {
		t.Fatalf("aborted batches moved write counters: %+v -> %+v", before, after)
	}
	if ok, cerr := db.Contains("dyn", 1); cerr != nil || !ok {
		t.Fatalf("dyn lost its member across aborted batches (ok=%v err=%v)", ok, cerr)
	}
}

// TestConcurrentMixedBatches races mixed add/remove group commits from
// many goroutines against lock-free readers (run under -race). Each
// writer owns a disjoint key space, so every batch must succeed; the
// readers continuously probe and sample whatever snapshot is published.
func TestConcurrentMixedBatches(t *testing.T) {
	db, err := Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 4
		rounds  = 50
	)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("w%d-plain", rng.Intn(writers))
				if _, err := db.Contains(key, uint64(rng.Intn(64))); err != nil && !errors.Is(err, ErrNoSet) {
					t.Errorf("Contains(%q): %v", key, err)
				}
				dkey := fmt.Sprintf("w%d-dyn", rng.Intn(writers))
				if _, err := db.Contains(dkey, uint64(rng.Intn(256))); err != nil && !errors.Is(err, ErrNoSet) {
					t.Errorf("Contains(%q): %v", dkey, err)
				}
			}
		}(int64(100 + r))
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			plain := fmt.Sprintf("w%d-plain", w)
			dyn := fmt.Sprintf("w%d-dyn", w)
			base := uint64(w * 64)
			for i := 0; i < rounds; i++ {
				id := base + uint64(i%64)
				if err := db.ApplyBatch([]Write{
					{Key: plain, IDs: []uint64{id}},
					{Key: dyn, IDs: []uint64{id}, Dynamic: true},
				}); err != nil {
					t.Errorf("writer %d add batch: %v", w, err)
					return
				}
				if err := db.ApplyBatch([]Write{
					{Key: dyn, IDs: []uint64{id}, Dynamic: true, Remove: true},
					{Key: dyn, IDs: []uint64{id}, Dynamic: true},
					{Key: plain, Remove: true},
					{Key: plain, IDs: []uint64{id}},
				}); err != nil {
					t.Errorf("writer %d mixed batch: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	for w := 0; w < writers; w++ {
		plain := fmt.Sprintf("w%d-plain", w)
		dyn := fmt.Sprintf("w%d-dyn", w)
		last := uint64(w*64) + uint64((rounds-1)%64)
		if ok, err := db.Contains(plain, last); err != nil || !ok {
			t.Fatalf("%s should contain %d (ok=%v err=%v)", plain, last, ok, err)
		}
		if ok, err := db.Contains(dyn, last); err != nil || !ok {
			t.Fatalf("%s should contain %d (ok=%v err=%v)", dyn, last, ok, err)
		}
	}
}
