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
// backends cost README's 3.4 / 4.6 B per live entry: a counting key is a
// plain filter's bit vector plus 8 B per counter of 2 or more, read or
// unread.
func TestBackendBytesPerLiveEntry(t *testing.T) {
	readme := map[membership.Kind]float64{membership.KindBloom: 3.4, membership.KindCounting: 4.6}
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
		unread := db.Membership("s").SizeBytes()
		db.Filter("s")
		if read := db.Membership("s").SizeBytes(); read != unread {
			t.Errorf("%s: %d B unread, %d B once read", kind, unread, read)
		}
		if got := float64(unread) / n; math.Abs(got-want) > 0.05*want {
			t.Errorf("%s: %.2f B per live entry, README says %.1f", kind, got, want)
		}
	}
}

// residentBytes is what a counting key holds, counted from its encoding,
// which is that: past the family header, the vector's bit length and the
// overflow count, the bit vector's words and 8 B per counter of 2 or more.
func residentBytes(t *testing.T, db *DB, key string) uint64 {
	t.Helper()
	m, ok := db.Membership(key).(interface{ Counting() *bloom.CountingFilter })
	if !ok {
		t.Fatalf("key %q is not counting-backed", key)
	}
	data, err := m.Counting().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	header := len("BSC2") + 1 + len(db.Options().HashKind) + 28
	return uint64(len(data) - header - 8 - 8)
}

// TestStatsBuildsNoView pins that introspection reports what is resident:
// Stats().Backend.MemoryBytes is the sum over counting keys of their bit
// vectors and overflow lists, and reads the same before and after the keys
// are read — a query view is a header over the vector, not a copy — and
// after a write that drives a counter past 1.
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
	resident := func() (sum uint64) {
		for _, key := range keys {
			sum += residentBytes(t, db, key)
		}
		return sum
	}
	before := db.Stats().Backend.MemoryBytes
	if want := resident(); before != want {
		t.Fatalf("Stats reports %d B over unread keys, want %d", before, want)
	}
	for _, key := range keys {
		db.Filter(key)
	}
	if got := db.Stats().Backend.MemoryBytes; got != before {
		t.Fatalf("Stats reports %d B once the keys are read, %d before", got, before)
	}
	if err := db.AddDynamic("b", 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	got, want := db.Stats().Backend.MemoryBytes, resident()
	if got != want || got <= before {
		t.Fatalf("after a write that overflows counters: Stats reports %d B, want %d (> %d)", got, want, before)
	}
}
