package setdb

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
)

// saveOptions is a profile small enough to save and load dozens of times.
func saveOptions(t *testing.T, pruned bool) Options {
	t.Helper()
	opts, err := PlanOptions(0.9, 100, 100_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts.Pruned = pruned
	opts.Seed = 7
	return opts
}

// reconstructs is every key's reconstruction.
func reconstructs(t *testing.T, db *DB) map[string][]uint64 {
	t.Helper()
	out := map[string][]uint64{}
	for _, key := range db.Keys() {
		ids, err := db.Reconstruct(key, core.PruneByAndBits, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[key] = ids
	}
	return out
}

// TestSaveIsTheBundle: a database has one file. Save writes the bytes
// WriteBundleTo produces, Load reads them back with nothing beside them —
// ids that grew a pruned tree after Open included — the sets without their
// container are refused by name, and a Save that fails leaves the file that
// was there.
func TestSaveIsTheBundle(t *testing.T) {
	for _, pruned := range []bool{false, true} {
		t.Run(fmt.Sprintf("pruned=%v", pruned), func(t *testing.T) {
			db, err := Open(saveOptions(t, pruned))
			if err != nil {
				t.Fatal(err)
			}
			db.Add("plain", 1, 2, 3)
			db.AddDynamic("dyn", 4, 5, 6)
			nodes := db.Tree().Nodes()
			db.Add("plain", 70_000)
			db.AddDynamic("dyn", 40_000)
			if pruned && db.Tree().Nodes() == nodes {
				t.Fatal("the late ids grew no node: the test needs them to")
			}

			dir := t.TempDir()
			path := filepath.Join(dir, "sets.db")
			view := db.SnapshotView()
			var want bytes.Buffer
			if _, err := view.WriteBundleTo(&want); err != nil {
				t.Fatal(err)
			}
			n, err := durable.WriteFile(durable.OS, path, view.WriteBundleTo)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) || n != int64(want.Len()) {
				t.Fatalf("durable.WriteFile of WriteBundleTo wrote %d bytes (reported %d) that are not WriteBundleTo's %d", len(got), n, want.Len())
			}
			saved := filepath.Join(dir, "saved.db")
			if err := db.Save(saved); err != nil {
				t.Fatal(err)
			}
			if got, _ := os.ReadFile(saved); !bytes.Equal(got, want.Bytes()) {
				t.Fatal("Save of a database at rest is not the bundle of a view pinned at the same state")
			}

			loaded, err := Load(saved)
			if err != nil {
				t.Fatalf("Load of a Save file: %v", err)
			}
			wantSets := reconstructs(t, db)
			if !slices.Contains(wantSets["plain"], 70_000) || !slices.Contains(wantSets["dyn"], 40_000) {
				t.Fatalf("the source does not reconstruct its own late ids: %v", wantSets)
			}
			if gotSets := reconstructs(t, loaded); !reflect.DeepEqual(gotSets, wantSets) {
				t.Fatalf("loaded reconstructions %v, want %v", gotSets, wantSets)
			}

			// A write that fails part-way: the section writer refuses a key
			// its uint16 length cannot hold, after the header has gone out.
			// No write binds such a key, so the test binds one beneath the
			// write path.
			overlong := strings.Repeat("k", MaxKeyLen+1)
			if err := db.Add(overlong, 9); !errors.Is(err, ErrKeyTooLong) {
				t.Fatalf("an add under a %d-byte key: %v, want ErrKeyTooLong", len(overlong), err)
			}
			db.sets.Store(overlong, db.load("plain"))
			if err := db.Save(saved); err == nil {
				t.Fatal("a database that does not serialize was saved")
			}
			if got, _ := os.ReadFile(saved); !bytes.Equal(got, want.Bytes()) {
				t.Fatal("a failed Save changed the file that was there")
			}
			if _, err := os.Stat(saved + ".tmp"); !os.IsNotExist(err) {
				t.Fatalf("a failed Save left its temp file behind (stat err %v)", err)
			}
		})
	}
}

// TestBareSetsAreRefused: a stream that begins SETDB2 — a bundle without its
// first seven bytes and its last, which is what Save wrote before it wrote
// bundles — is refused in words that say what it is.
func TestBareSetsAreRefused(t *testing.T) {
	db, err := Open(saveOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	db.Add("k", 1)
	bundle := bundleBytes(t, db)
	bare := bundle[len(bundleMagic) : len(bundle)-1]
	path := filepath.Join(t.TempDir(), "bare.db")
	if err := os.WriteFile(path, bare, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	if err == nil || !strings.Contains(err.Error(), "bare SETDB2 stream") {
		t.Fatalf("Load of the sets alone: err %v, want one naming the bare SETDB2 stream", err)
	}
}

// TestSaveRacesWriters: Save pins its view under the writers it races, so
// every write acknowledged before Save was called is in the file — with the
// pruned tree's leaves to reach it — whatever lands meanwhile.
func TestSaveRacesWriters(t *testing.T) {
	db, err := Open(saveOptions(t, true))
	if err != nil {
		t.Fatal(err)
	}
	const writers, rounds = 8, 300
	id := func(w, i int) uint64 { return uint64(w*12_000 + i*37) }
	var acked [writers]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", w)
			for i := 0; i < rounds; i++ {
				var err error
				if w%2 == 0 {
					err = db.Add(key, id(w, i))
				} else {
					err = db.AddDynamic(key, id(w, i))
				}
				if err != nil {
					t.Error(err)
					return
				}
				acked[w].Store(int64(i + 1))
			}
		}(w)
	}
	path := filepath.Join(t.TempDir(), "racing.db")
	raced := 0
	for round, done := 0, false; !done; round++ {
		var pinned [writers]int
		total := 0
		for w := range pinned {
			pinned[w] = int(acked[w].Load())
			total += pinned[w]
		}
		if done = total == writers*rounds; !done {
			raced++
		}
		if err := db.Save(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(path)
		if err != nil {
			t.Fatalf("Load of a Save that raced writers: %v", err)
		}
		for w, n := range pinned {
			if n == 0 {
				continue
			}
			key := fmt.Sprintf("key-%d", w)
			got, err := loaded.Reconstruct(key, core.PruneByAndBits, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if !slices.Contains(got, id(w, i)) {
					t.Fatalf("round %d: %s lost id %d, acknowledged before Save was called", round, key, id(w, i))
				}
			}
		}
	}
	wg.Wait()
	if raced == 0 {
		t.Fatal("every write had landed before the first Save: nothing raced")
	}
	t.Logf("%d Save/Load rounds began with writes still landing", raced)
}
