package setdb

import (
	"bytes"
	"errors"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/bloom"
	"repro/internal/core"
)

// countStarts counts, until the test ends, the goroutines batches start.
func countStarts(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	prev := startGoroutine
	startGoroutine = func(f func()) {
		n.Add(1)
		prev(f)
	}
	t.Cleanup(func() { startGoroutine = prev })
	return &n
}

// buildOptions is a pruned database whose namespace holds batches of
// core.GrowRun ids and more.
func buildOptions() Options {
	return Options{Namespace: 1 << 16, Bits: 1024, K: 3, Seed: 53, TreeDepth: 6, Pruned: true}
}

// prefilled opens a database holding plain keys p0…p19 and dynamic
// (counting) keys d0…d19, each of 50 ids; it returns their ids by key too.
func prefilled(t *testing.T) (*DB, map[string][]uint64) {
	t.Helper()
	db, err := Open(buildOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	held := map[string][]uint64{}
	var writes []Write
	for i := 0; i < 20; i++ {
		for _, kind := range []string{"p", "d"} {
			w := Write{Key: kind + strconv.Itoa(i), Dynamic: kind == "d"}
			for len(w.IDs) < 50 {
				w.IDs = append(w.IDs, uint64(rng.Intn(1<<16)))
			}
			held[w.Key] = w.IDs
			writes = append(writes, w)
		}
	}
	if err := db.ApplyBatch(writes); err != nil {
		t.Fatal(err)
	}
	return db, held
}

// state is every bound key's encoded value, and the write counters.
func state(t *testing.T, db *DB) (map[string][]byte, DBStats) {
	t.Helper()
	out := map[string][]byte{}
	for _, k := range db.Keys() {
		b, err := db.Membership(k).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		out[k] = b
	}
	return out, db.Stats()
}

func sameState(t *testing.T, what string, got, want map[string][]byte, gotStats, wantStats DBStats) {
	t.Helper()
	if gotKeys, wantKeys := slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)); !slices.Equal(gotKeys, wantKeys) {
		t.Fatalf("%s: keys %v, want %v", what, gotKeys, wantKeys)
	}
	for k, b := range want {
		if !bytes.Equal(got[k], b) {
			t.Fatalf("%s: key %q holds other bytes", what, k)
		}
	}
	if gotStats.Generations != wantStats.Generations || gotStats.StateWrites != wantStats.StateWrites {
		t.Fatalf("%s: generations %d and writes %d, want %d and %d", what,
			gotStats.Generations, gotStats.StateWrites, wantStats.Generations, wantStats.StateWrites)
	}
}

// TestParallelBuildIsSerialBuild: a batch of core.GrowRun ids and more
// builds its keys' values on up to GOMAXPROCS goroutines, and every value
// is byte for byte the one a serial pass builds (here: each write applied
// as a batch of its own), at GOMAXPROCS 1, 2 and 4. The batch writes plain
// and counting keys, old and new, each several times, interleaved: adds,
// removes of ids the key holds (some added earlier in the batch), an
// unbind followed by a fresh add, and a dynamic remove of nothing; the
// generations and writes counted are the serial pass's too. It starts
// GOMAXPROCS − 1 builders and the tree's growth, and no other goroutine.
func TestParallelBuildIsSerialBuild(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	_, held := prefilled(t)
	rng := rand.New(rand.NewSource(11))
	some := func(n int) []uint64 {
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = uint64(rng.Intn(1 << 16))
		}
		return ids
	}
	var writes []Write
	ids := 0
	for round := 0; ids < 2*core.GrowRun; round++ {
		cycle := round / 4
		for i := 0; i < 20; i++ {
			p, d, n := "p"+strconv.Itoa(i), "d"+strconv.Itoa(i), "n"+strconv.Itoa(i)
			pDynamic := cycle%2 == 1 // p is unbound and bound again, of the other kind, each cycle
			var ws []Write
			switch round % 4 {
			case 0:
				ws = []Write{
					{Key: p, IDs: some(30), Dynamic: pDynamic},
					{Key: d, IDs: some(30), Dynamic: true},
					{Key: n, IDs: some(20), Dynamic: i%2 == 0},
				}
			case 1:
				ws = []Write{
					{Key: d, IDs: held[d][10*cycle : 10*cycle+5], Dynamic: true, Remove: true},
					{Key: p, IDs: some(10), Dynamic: pDynamic},
					{Key: d, Dynamic: true, Remove: true},
				}
			case 2:
				ws = []Write{
					{Key: d, IDs: held[d][10*cycle+5 : 10*cycle+10], Dynamic: true, Remove: true},
					{Key: n, Remove: true},
					{Key: n, IDs: some(15), Dynamic: i%2 == 0},
				}
			case 3:
				ws = []Write{
					{Key: p, Remove: true},
					{Key: p, IDs: some(25), Dynamic: !pDynamic},
					{Key: d, IDs: some(5), Dynamic: true},
				}
			}
			for _, w := range ws {
				ids += len(w.IDs)
			}
			writes = append(writes, ws...)
		}
	}

	serial, _ := prefilled(t)
	for i := range writes {
		if err := serial.ApplyBatch(writes[i : i+1]); err != nil {
			t.Fatalf("write %d alone: %v", i, err)
		}
	}
	want, wantStats := state(t, serial)

	starts := countStarts(t)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		db, _ := prefilled(t)
		starts.Store(0)
		if err := db.ApplyBatch(writes); err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if got := starts.Load(); got != int64(procs) {
			t.Fatalf("GOMAXPROCS %d: the batch started %d goroutines, want %d builders and its growth", procs, got, procs-1)
		}
		got, gotStats := state(t, db)
		sameState(t, "GOMAXPROCS "+strconv.Itoa(procs), got, want, gotStats, wantStats)
	}
}

// TestEarliestFailingWriteDecides: when two writes of a batch built on four
// goroutines fail, the one earlier in batch order decides the error,
// whichever key was taken up first (the failing keys are the batch's first
// and last, 200 keys of 30 ids apart, and builders take keys one at a
// time), and nothing is stored: not the keys that built, nor a counter.
func TestEarliestFailingWriteDecides(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	for _, clashFirst := range []bool{false, true} {
		for round := 0; round < 10; round++ {
			db, _ := prefilled(t)
			before, beforeStats := state(t, db)
			var absent uint64
			for db.Membership("d19").Contains(absent) {
				absent++
			}
			clash := Write{Key: "p0", IDs: []uint64{2}, Dynamic: true} // a dynamic add onto a plain key
			notMember := Write{Key: "d19", IDs: []uint64{absent}, Dynamic: true, Remove: true}
			first, second, want, other := clash, notMember, ErrKeyClash, bloom.ErrNotMember
			if !clashFirst {
				first, second, want, other = notMember, clash, bloom.ErrNotMember, ErrKeyClash
			}
			writes := []Write{{Key: "p0", IDs: []uint64{1}}}
			filler := func(from int) {
				for i := from; i < from+100; i++ {
					w := Write{Key: "f" + strconv.Itoa(i), Dynamic: i%2 == 0}
					for j := 0; j < 30; j++ {
						w.IDs = append(w.IDs, uint64(i*30+j))
					}
					writes = append(writes, w)
				}
			}
			filler(0)
			writes = append(writes, first)
			filler(100)
			writes = append(writes, second)
			err := db.ApplyBatch(writes)
			if !errors.Is(err, want) || errors.Is(err, other) {
				t.Fatalf("clash first %v: err = %v, want the earlier write's %v", clashFirst, err, want)
			}
			after, afterStats := state(t, db)
			sameState(t, "a failed batch", after, before, afterStats, beforeStats)
		}
	}
}

// TestSmallBatchStartsNoGoroutine: a batch of fewer than core.GrowRun ids
// builds its values and grows the tree on its caller's goroutine, however
// many keys it writes and whatever GOMAXPROCS is; one of core.GrowRun ids
// starts GOMAXPROCS − 1 value builders and its growth.
func TestSmallBatchStartsNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	starts := countStarts(t)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{core.GrowRun - 1, core.GrowRun} {
			db, _ := prefilled(t)
			var writes []Write
			for i := 0; i < n; i++ {
				k := i % 64
				if i < 64 {
					writes = append(writes, Write{Key: "s" + strconv.Itoa(k), Dynamic: k%2 == 0})
				}
				writes[k].IDs = append(writes[k].IDs, uint64(i))
			}
			starts.Store(0)
			if err := db.ApplyBatch(writes); err != nil {
				t.Fatal(err)
			}
			want := int64(0)
			if n >= core.GrowRun {
				want = int64(procs)
			}
			if got := starts.Load(); got != want {
				t.Fatalf("GOMAXPROCS %d: a batch of %d ids over 64 keys started %d goroutines, want %d", procs, n, got, want)
			}
		}
	}
}
