package setdb

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestConcurrentReadWriteMix hammers one database with a parallel mix of
// Sample, SampleN, Contains, Reconstruct, IntersectionEstimate, Add and
// Delete (on a dedicated churn key, so the stable keys stay countable).
// Run under -race this is the regression test for the lock-free read
// path: stored filters and the tree must never be mutated by query-side
// operations.
func TestConcurrentReadWriteMix(t *testing.T) {
	db, err := Open(testOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i, k := range keys {
		for j := 0; j < 16; j++ {
			if err := db.Add(k, uint64(i*10_000+j*100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	const churnKey = "victim"
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 35; i++ {
				key := keys[rng.Intn(len(keys))]
				switch i % 8 {
				case 0:
					db.Sample(key, rng, nil)
				case 1:
					db.SampleN(key, 4, true, rng, nil)
				case 2:
					db.Contains(key, uint64(rng.Intn(1_000_000)))
				case 3:
					db.Reconstruct(key, core.PruneByEstimate, nil)
				case 4:
					db.IntersectionEstimate(key, keys[rng.Intn(len(keys))])
				case 5:
					db.Add(key, uint64(rng.Intn(1_000_000)))
				case 6:
					db.Keys()
					db.Len()
				case 7:
					// Create/read/delete churn racing the read path.
					db.Add(churnKey, uint64(rng.Intn(1_000_000)))
					db.Sample(churnKey, rng, nil)
					db.Delete(churnKey)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := db.Len(); n != len(keys) && n != len(keys)+1 {
		t.Fatalf("Len = %d, want %d or %d", n, len(keys), len(keys)+1)
	}
	for _, k := range keys {
		if db.Filter(k) == nil {
			t.Fatalf("stable key %q lost", k)
		}
	}
}

// TestConcurrentPrunedGrowth checks that pruned-tree growth (Add) and
// concurrent sampling coexist on the lock-free epoch-based growth path:
// queries never wait, and every published id stays reachable.
func TestConcurrentPrunedGrowth(t *testing.T) {
	db, err := Open(testOptions(t, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("seedset", 1, 500_000, 999_999); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			pinned := db.Filter("seedset")
			for i := 0; i < 40; i++ {
				if g%2 == 0 {
					db.Add("seedset", uint64(rng.Intn(1_000_000)))
				} else {
					db.Sample("seedset", rng, nil)
					db.Reconstruct("seedset", core.PruneByAndBits, nil)
					if i%8 == 0 {
						// Exact draws from a held version must stay true
						// while the tree grows leaves under its table.
						if ids, err := db.SampleExactFrom(pinned, 1); err != nil || len(ids) != 1 || !pinned.Contains(ids[0]) {
							t.Errorf("exact draw from a held version: %v, %v", ids, err)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentDynamicMix mixes dynamic-set mutation — AddDynamic AND
// RemoveDynamic — with snapshots, sampling and reconstruction under
// -race. Each goroutine removes only ids it added itself, so every
// remove targets a member and the final membership is predictable: the
// seed ids survive, every id a goroutine left in place survives, and
// every removed id is gone.
func TestConcurrentDynamicMix(t *testing.T) {
	db, err := Open(testOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{10, 20, 30, 40, 50}
	if err := db.AddDynamic("dyn", seeds...); err != nil {
		t.Fatal(err)
	}
	const perG = 30
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				own := uint64(100 + g*1000 + i)
				switch i % 6 {
				case 0:
					if err := db.AddDynamic("dyn", own); err != nil {
						t.Error(err)
					}
				case 1:
					// Add then remove an id this goroutine owns; the pair
					// races other goroutines' mutations but never targets
					// their ids.
					if err := db.AddDynamic("dyn", own); err != nil {
						t.Error(err)
					}
					if err := db.RemoveDynamic("dyn", own); err != nil {
						t.Error(err)
					}
				case 2:
					db.Contains("dyn", uint64(rng.Intn(1000)))
				case 3:
					db.Sample("dyn", rng, nil)
				case 4:
					db.Reconstruct("dyn", core.PruneByAndBits, nil)
				case 5:
					db.Keys()
					db.Filter("dyn")
				}
			}
		}(g)
	}
	wg.Wait()
	for _, id := range seeds {
		ok, err := db.Contains("dyn", id)
		if err != nil || !ok {
			t.Fatalf("seed id %d lost after churn (ok=%v err=%v)", id, ok, err)
		}
	}
	// Ids added in case 0 (never removed) must be members; a plain filter
	// snapshot of the final state must agree.
	snap := db.Filter("dyn")
	if snap == nil {
		t.Fatal("dyn has no published version")
	}
	for g := 0; g < 8; g++ {
		for i := 0; i < perG; i += 6 { // case 0 iterations
			id := uint64(100 + g*1000 + i)
			if ok, _ := db.Contains("dyn", id); !ok {
				t.Fatalf("kept id %d lost", id)
			}
			if !snap.Contains(id) {
				t.Fatalf("kept id %d missing from snapshot", id)
			}
		}
	}
}

// TestConcurrentSamplerShared pins the shared-version contract: one held
// filter version shared by many goroutines drawing exactly from it keeps
// serving its own positives, from the one table one scan found, while a
// writer goroutine keeps growing the same key (copy-on-write filter swaps
// the held version never sees).
func TestConcurrentSamplerShared(t *testing.T) {
	db, err := Open(testOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	seedRng := rand.New(rand.NewSource(7))
	seedIDs := make([]uint64, 400)
	for i := range seedIDs {
		seedIDs[i] = seedRng.Uint64() % 1_000_000
	}
	if err := db.Add("hot", seedIDs...); err != nil {
		t.Fatal(err)
	}
	pinned := db.Filter("hot")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// A bounded writer keeps the key growing (each Add publishes a
		// copy-on-write swap beside the draws).
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 60; i++ {
			if err := db.Add("hot", uint64(rng.Intn(1_000_000))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				ids, err := db.SampleExactFrom(pinned, 1)
				if err != nil || len(ids) != 1 || !pinned.Contains(ids[0]) {
					t.Errorf("shared version: drew %v, %v; want a positive of the held version", ids, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := db.Stats(); st.DrawsWarm != 8*25 || st.PositivesScans != 1 {
		t.Fatalf("eight goroutines on one held version: %d picks from %d scans, want 200 from 1", st.DrawsWarm, st.PositivesScans)
	}
}

// TestConcurrentAddSameKey pins the copy-on-write write path against lost
// updates: many writers hammering ONE key publish serialized clone-swaps,
// so every id from every writer must be present afterwards.
func TestConcurrentAddSameKey(t *testing.T) {
	db, err := Open(testOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	const writers, perW = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if err := db.Add("one", uint64(g*perW+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for id := uint64(0); id < writers*perW; id++ {
		if ok, err := db.Contains("one", id); err != nil || !ok {
			t.Fatalf("id %d lost to a concurrent COW swap (ok=%v err=%v)", id, ok, err)
		}
	}
	if f := db.Filter("one"); f.Insertions() != writers*perW {
		t.Fatalf("insertions = %d, want %d", f.Insertions(), writers*perW)
	}
}

func TestSampleMany(t *testing.T) {
	db, err := Open(testOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	members := []uint64{7, 1_000, 99_999, 500_000, 999_998}
	if err := db.Add("s", members...); err != nil {
		t.Fatal(err)
	}
	var ops core.Ops
	got, err := db.SampleManyFrom(db.Filter("s"), 200, 0, &ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) > 200 {
		t.Fatalf("SampleMany returned %d samples, want 1..200", len(got))
	}
	for _, x := range got {
		if ok, _ := db.Contains("s", x); !ok {
			t.Fatalf("sample %d not a positive of the set", x)
		}
	}
	if ops.NodesVisited == 0 {
		t.Fatal("Ops not accumulated")
	}
	if _, err := db.SampleMany("absent", 5); err == nil {
		t.Fatal("missing key accepted by SampleMany")
	}
	if got, err := db.SampleMany("s", 0); err != nil || got != nil {
		t.Fatalf("SampleMany(0) = %v, %v", got, err)
	}
}

// TestShardDistribution sanity-checks that the FNV sharding actually
// spreads keys over multiple shards (a constant shardIndex would silently
// serialize all writers again).
func TestShardDistribution(t *testing.T) {
	used := map[int]bool{}
	for i := 0; i < 256; i++ {
		used[shardIndex(string(rune('a'+i%26))+string(rune('0'+i%10)))] = true
	}
	if len(used) < numShards/2 {
		t.Fatalf("only %d of %d shards used by 256 keys", len(used), numShards)
	}
}

// TestHeldUniformSamplerIsAPin pins what a caller who samples a key exactly
// holds across writes to it — the key's filter — as what it is: a pin on the
// version it was read at. After its key is deleted (or deleted and re-added)
// its draws go on serving that version —
// stale, never an error, and never an id of the lifetime that took the key's
// name; a filter asked for afterwards serves the new lifetime.
func TestHeldUniformSamplerIsAPin(t *testing.T) {
	db, err := Open(testOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	db.Add("s", 10, 20, 30, 40)
	pinned := db.Filter("s")
	draw := func(when string) {
		t.Helper()
		if ids, err := db.SampleExactFrom(pinned, 1); err != nil || len(ids) != 1 || !pinned.Contains(ids[0]) {
			t.Fatalf("%s: held version drew %v, %v; want a positive of the version pinned", when, ids, err)
		}
	}
	draw("fresh version")
	db.Delete("s")
	draw("after Delete")
	if db.Filter("s") != nil {
		t.Fatal("Filter of a deleted key is not nil")
	}
	db.Add("s", 99)
	draw("after re-Add")
	reborn := db.Filter("s")
	if ids, err := db.SampleExactFrom(reborn, 1); err != nil || len(ids) != 1 || !reborn.Contains(ids[0]) || pinned.Contains(ids[0]) {
		t.Fatalf("the new lifetime drew %v, %v; want 99 (or a false positive of its filter)", ids, err)
	}
	if st := db.Stats(); st.PositivesScans != 2 || st.DrawsWarm != 4 {
		t.Fatalf("two versions drawn from exactly: %d scans, %d picks; want 2 and 4", st.PositivesScans, st.DrawsWarm)
	}
}
