package wal

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/setdb"
)

// BenchmarkBoot is the timed half of what a snapshot buys (the exact half
// is TestSnapshotWithNoTail: it bounds the records replayed): booting from
// a snapshot taken at 80 % of ingest plus the WAL tail behind it, against
// rebuilding the same state by applying every batch to a fresh database —
// what a boot with no durability layer would have to do. 2 000 keys × 8
// ids in group-commit batches of 16; both sides must serialize to the
// ingested database's bytes before either is timed. CI's "Benchmark
// gates" step requires rebuild ≥ recover on the medians of five runs (the
// margin at this size: 3.3–3.95× recorded 2026-08-08, ≈ 2.2× at PR 18).
func BenchmarkBoot(b *testing.B) {
	const keys, idsPerWrite, batch, M = 2000, 8, 16, 100_000
	opts, err := setdb.PlanOptions(0.9, idsPerWrite, M, 3)
	check(b, err)
	opts.Pruned = true
	fresh := freshFunc(b, opts)

	rng := rand.New(rand.NewSource(1))
	batches := make([][]setdb.Write, keys/batch)
	for k := 0; k < keys; k++ {
		w := setdb.Write{Key: "k" + strconv.Itoa(k)}
		for j := 0; j < idsPerWrite; j++ {
			w.IDs = append(w.IDs, rng.Uint64()%M)
		}
		batches[k/batch] = append(batches[k/batch], w)
	}

	dir := b.TempDir()
	boot := func(tb testing.TB) *Store {
		s, err := Open(dir, fresh, Options{Fsync: FsyncNever})
		check(tb, err)
		return s
	}
	rebuild := func(tb testing.TB) *setdb.DB {
		db, err := fresh()
		check(tb, err)
		for _, w := range batches {
			check(tb, db.ApplyBatch(w))
		}
		return db
	}
	s := boot(b)
	for i, w := range batches {
		check(b, s.Apply(w))
		if i+1 == len(batches)*8/10 {
			_, err := s.Snapshot()
			check(b, err)
		}
	}
	want := bundleBytes(b, s.DB())
	check(b, s.Close())
	s = boot(b)
	if !bytes.Equal(bundleBytes(b, s.DB()), want) || !bytes.Equal(bundleBytes(b, rebuild(b)), want) {
		b.Fatal("recovered or rebuilt database differs from the ingested one")
	}
	check(b, s.Close())

	b.Run("recover", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := boot(b)
			b.StopTimer()
			check(b, s.Close())
			b.StartTimer()
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rebuild(b)
		}
	})
}

func check(tb testing.TB, err error) {
	tb.Helper()
	if err != nil {
		tb.Fatal(err)
	}
}
