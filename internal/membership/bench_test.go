package membership

import (
	"testing"

	"repro/internal/hashfam"
)

// BenchmarkCountingWriteThenRead times what a removable key pays between a
// write and the first read after it, on the shape bench/'s mixed_wal
// workload serves (m = 27 391, k = 3, 500 ids under the key, 4 ids added):
// viewed-parent is the copy-on-write step plus QueryView on a key that has
// been read before, cold is QueryView alone on a version with no viewed
// ancestor (first read after boot, restore or ingest).
func BenchmarkCountingWriteThenRead(b *testing.B) {
	fam, err := hashfam.New(hashfam.DefaultKind, 27_391, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]uint64, 500)
	for i := range ids {
		ids[i] = uint64(i) * 199
	}
	fresh := []uint64{7, 1_000_003, 1_000_033, 1_000_037}
	var sink uint64

	b.Run("viewed-parent", func(b *testing.B) {
		dm, err := NewDynamicWith(KindCounting, fam, 0, ids)
		if err != nil {
			b.Fatal(err)
		}
		dm.QueryView()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += dm.CloneAddDynamic(fresh...).QueryView().M()
		}
	})
	b.Run("cold", func(b *testing.B) {
		dm, err := NewDynamicWith(KindCounting, fam, 0, ids)
		if err != nil {
			b.Fatal(err)
		}
		// Versions of a parent nobody has read carry no view; they are
		// made off the clock, a few at a time.
		versions := make([]DynamicMembership, 32)
		b.ReportAllocs()
		for done := 0; done < b.N; {
			b.StopTimer()
			for i := range versions {
				versions[i] = dm.CloneAddDynamic(fresh...)
			}
			b.StartTimer()
			for i := 0; i < len(versions) && done < b.N; i++ {
				sink += versions[i].QueryView().M()
				done++
			}
		}
	})
	_ = sink
}
