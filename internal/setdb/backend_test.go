package setdb

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bloom"
	"repro/internal/membership"
)

func openBackendDB(t *testing.T, kind membership.Kind) *DB {
	t.Helper()
	opts, err := PlanOptions(0.9, 100, 10_000, 3)
	if err != nil {
		t.Fatalf("PlanOptions: %v", err)
	}
	opts.Backend = kind
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

// TestBackendBatchAndSnapshotRoundTrip runs the group-commit path and a
// persistence round-trip on the removable backend.
func TestBackendBatchAndSnapshotRoundTrip(t *testing.T) {
	for _, kind := range []membership.Kind{membership.KindCounting} {
		t.Run(string(kind), func(t *testing.T) {
			db := openBackendDB(t, kind)
			err := db.ApplyBatch([]Write{
				{Key: "p", IDs: []uint64{1, 2, 3}},
				{Key: "d", IDs: []uint64{10, 20, 30}, Dynamic: true},
				{Key: "d", IDs: []uint64{20}, Dynamic: true, Remove: true},
			})
			if err != nil {
				t.Fatalf("ApplyBatch: %v", err)
			}
			if ok, _ := db.Contains("d", 20); ok {
				t.Fatal("batched remove left 20 a member")
			}
			db2 := reload(t, db)
			if db2.Options().Backend != kind {
				t.Fatalf("reloaded backend = %q, want %q", db2.Options().Backend, kind)
			}
			for _, id := range []uint64{10, 30} {
				ok, err := db2.Contains("d", id)
				if err != nil || !ok {
					t.Fatalf("reloaded Contains(%d) = %v, %v", id, ok, err)
				}
			}
			if ok, _ := db2.Contains("p", 2); !ok {
				t.Fatal("reloaded plain set lost a member")
			}
			if ok, _ := db2.Contains("d", 20); ok {
				t.Fatal("the reloaded set resurrects removed id 20")
			}
			if st := db2.Stats().Backend; st.Kind != string(kind) || st.Entries != 2 || st.MemoryBytes == 0 {
				t.Fatalf("reloaded Stats().Backend = %+v, want %s with 2 entries", st, kind)
			}
		})
	}
}

// TestBackendBytesPerLiveEntry pins the memory row of README's "Membership
// backends" table. At one planned false-positive point (accuracy 0.9,
// M = 100 000, k = 3, n = 1 000 seeded distinct ids under one key) the two
// backends cost README's 3.4 / 30.8 B per live entry. The row is a
// served key's: the key is read once before it is sized, since a counting
// key nobody has read holds its counters only (m B, 27.3 an entry).
func TestBackendBytesPerLiveEntry(t *testing.T) {
	readme := map[membership.Kind]float64{membership.KindBloom: 3.4, membership.KindCounting: 30.8}
	ids := rand.New(rand.NewSource(1)).Perm(100_000)
	const n = 1000
	for kind, want := range readme {
		opts, err := PlanOptions(0.9, n, 100_000, 3)
		if err != nil {
			t.Fatal(err)
		}
		opts.Backend = kind
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		w := Write{Key: "s", Dynamic: kind != membership.KindBloom}
		for _, id := range ids[:n] {
			w.IDs = append(w.IDs, uint64(id))
		}
		if err := db.ApplyBatch([]Write{w}); err != nil {
			t.Fatal(err)
		}
		if unread := db.Membership("s").SizeBytes(); kind == membership.KindCounting && unread != opts.Bits {
			t.Errorf("an unread counting key reports %d B, want its %d counters", unread, opts.Bits)
		}
		db.Filter("s")
		if got := float64(db.Membership("s").SizeBytes()) / n; math.Abs(got-want) > 0.05*want {
			t.Errorf("%s: %.2f B per live entry, README says %.1f", kind, got, want)
		}
	}
}

// countingView returns the query view the counting key holds, nil when it
// has none; unlike db.Filter it builds nothing.
func countingView(t *testing.T, db *DB, key string) *bloom.Filter {
	t.Helper()
	m, ok := db.Membership(key).(interface{ Counting() *bloom.CountingFilter })
	if !ok {
		t.Fatalf("key %q is not counting-backed", key)
	}
	return m.Counting().PeekSnapshot()
}

// TestStatsBuildsNoView pins that introspection reports what is resident
// and builds nothing: Stats over counting keys nobody has read leaves each
// without a query view and counts their counters only; a key that has been
// read adds its view, and keeps it across a later write while the unread
// keys still have none.
func TestStatsBuildsNoView(t *testing.T) {
	db := openBackendDB(t, membership.KindCounting)
	keys := []string{"a", "b", "c", "d"}
	for i, key := range keys {
		if err := db.AddDynamic(key, uint64(i), uint64(i)+100, uint64(i)+2000); err != nil {
			t.Fatal(err)
		}
		if err := db.RemoveDynamic(key, uint64(i)+100); err != nil {
			t.Fatal(err)
		}
	}
	counters := uint64(len(keys)) * db.Options().Bits
	if got := db.Stats().Backend.MemoryBytes; got != counters {
		t.Fatalf("Stats reports %d B over unread keys, want the %d B of counters", got, counters)
	}
	for _, key := range keys {
		if countingView(t, db, key) != nil {
			t.Fatalf("Stats built a query view for %q", key)
		}
	}

	view := db.Filter("b")
	if got := db.Stats().Backend.MemoryBytes; got != counters+view.SizeBytes() {
		t.Fatalf("Stats reports %d B with one key read, want %d", got, counters+view.SizeBytes())
	}
	if err := db.AddDynamic("b", 77); err != nil {
		t.Fatal(err)
	}
	if err := db.AddDynamic("c", 78); err != nil {
		t.Fatal(err)
	}
	if carried := countingView(t, db, "b"); carried == nil || carried == view || !carried.Contains(77) {
		t.Fatalf("the write to a read key did not carry its view on: %v", carried)
	}
	for _, key := range []string{"a", "c", "d"} {
		if countingView(t, db, key) != nil {
			t.Fatalf("unread key %q has a view after the writes", key)
		}
	}
}
