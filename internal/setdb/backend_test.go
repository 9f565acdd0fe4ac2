package setdb

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bloom"
	"repro/internal/core"
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

// TestCuckooBackendEndToEnd drives the cuckoo backend through the whole
// database surface: dynamic writes, removes, native probes, sampling
// through the shared tree, reconstruction, stats and persistence.
func TestCuckooBackendEndToEnd(t *testing.T) {
	db := openBackendDB(t, membership.KindCuckoo)
	ids := []uint64{2, 4, 6, 8, 100, 2000, 9999}
	if err := db.AddDynamic("c", ids...); err != nil {
		t.Fatalf("AddDynamic: %v", err)
	}
	if err := db.RemoveDynamic("c", 4, 100); err != nil {
		t.Fatalf("RemoveDynamic: %v", err)
	}
	for _, id := range []uint64{2, 6, 8, 2000, 9999} {
		ok, err := db.Contains("c", id)
		if err != nil || !ok {
			t.Fatalf("Contains(%d) = %v, %v; want member", id, ok, err)
		}
	}
	if ok, _ := db.Contains("c", 4); ok {
		t.Fatal("removed id 4 still a native member")
	}

	m := db.Membership("c")
	if m.Backend() != membership.KindCuckoo {
		t.Fatalf("backend = %q, want cuckoo", m.Backend())
	}
	if m.Live() != 5 {
		t.Fatalf("Live() = %d, want 5", m.Live())
	}

	rng := rand.New(rand.NewSource(7))
	counts := map[uint64]int{}
	for i := 0; i < 500; i++ {
		x, err := db.Sample("c", rng, nil)
		if err == core.ErrNoSample {
			continue
		}
		if err != nil {
			t.Fatalf("Sample: %v", err)
		}
		counts[x]++
	}
	if len(counts) == 0 {
		t.Fatal("no samples drawn from cuckoo-backed set")
	}

	got, err := db.Reconstruct("c", core.PruneByAndBits, nil)
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	want := map[uint64]bool{2: true, 6: true, 8: true, 2000: true, 9999: true}
	for id := range want {
		found := false
		for _, g := range got {
			if g == id {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("reconstruction missing live member %d (got %v)", id, got)
		}
	}

	st := db.Stats()
	if st.Backend.Kind != string(membership.KindCuckoo) {
		t.Fatalf("Stats().Backend.Kind = %q, want cuckoo", st.Backend.Kind)
	}
	if st.Backend.Entries != 5 || st.Backend.MemoryBytes == 0 {
		t.Fatalf("Stats().Backend = %+v, want 5 entries with nonzero memory", st.Backend)
	}
	if st.Backend.LoadFactor <= 0 {
		t.Fatalf("Stats().Backend.LoadFactor = %v, want > 0 for cuckoo", st.Backend.LoadFactor)
	}

	// Persistence round-trip keeps the backend kind and the live members.
	db2 := reload(t, db)
	if db2.Options().Backend != membership.KindCuckoo {
		t.Fatalf("reloaded backend = %q, want cuckoo", db2.Options().Backend)
	}
	m2 := db2.Membership("c")
	if m2 == nil || m2.Backend() != membership.KindCuckoo || m2.Live() != 5 {
		t.Fatalf("reloaded dynamic set = %v, want cuckoo with 5 live", m2)
	}
	if ok, _ := db2.Contains("c", 4); ok {
		t.Fatal("reloaded set resurrects removed id 4")
	}
	if err := db2.AddDynamic("c", 42); err != nil {
		t.Fatalf("AddDynamic after reload: %v", err)
	}
}

// TestBackendBatchAndSnapshotRoundTrip runs the group-commit path and a
// v2 persistence round-trip on both dynamic backends.
func TestBackendBatchAndSnapshotRoundTrip(t *testing.T) {
	for _, kind := range []membership.Kind{membership.KindCounting, membership.KindCuckoo} {
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
		})
	}
}

// TestBackendBytesPerLiveEntry pins the memory row of README's "Membership
// backends" table. At one planned false-positive point (accuracy 0.9,
// M = 100 000, k = 3, n seeded distinct ids under one key) a cuckoo set is
// no larger than a counting set at either n, and at n = 1 000 the three
// backends cost README's 3.4 / 30.8 / 7.5 B per live entry. The row is a
// served key's: the key is read once before it is sized, since a counting
// key nobody has read holds its counters only (m B, 27.3 an entry).
func TestBackendBytesPerLiveEntry(t *testing.T) {
	readme := map[membership.Kind]float64{membership.KindBloom: 3.4, membership.KindCounting: 30.8, membership.KindCuckoo: 7.5}
	ids := rand.New(rand.NewSource(1)).Perm(100_000)
	for _, n := range []int{100, 1000} {
		perEntry := map[membership.Kind]float64{}
		for kind, want := range readme {
			opts, err := PlanOptions(0.9, uint64(n), 100_000, 3)
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
			got := float64(db.Membership("s").SizeBytes()) / float64(n)
			perEntry[kind] = got
			if n == 1000 && math.Abs(got-want) > 0.05*want {
				t.Errorf("%s at n = 1000: %.2f B per live entry, README says %.1f", kind, got, want)
			}
		}
		if perEntry[membership.KindCuckoo] > perEntry[membership.KindCounting] {
			t.Errorf("n = %d: cuckoo %.2f B per entry, above counting's %.2f", n, perEntry[membership.KindCuckoo], perEntry[membership.KindCounting])
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
