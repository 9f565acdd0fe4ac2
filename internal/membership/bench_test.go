package membership

import (
	"testing"

	"repro/internal/hashfam"
)

// BenchmarkCountingWriteThenRead times a removable key's copy-on-write step
// on the shape bench/'s mixed_wal workload serves (m = 27 391, k = 3, 500
// ids under the key): add4 and remove4 are a write of 4 ids alone, and
// write-read is add4 plus the QueryView the first read after it takes.
// Every arm derives from the same parent, which has been read.
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
	held := ids[:4]
	dm, err := NewDynamicWith(KindCounting, fam, 0, ids)
	if err != nil {
		b.Fatal(err)
	}
	dm.QueryView()
	var sink uint64

	b.Run("add4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += dm.CloneAddDynamic(fresh...).Live()
		}
	})
	b.Run("remove4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			next, err := dm.CloneRemove(held...)
			if err != nil {
				b.Fatal(err)
			}
			sink += next.Live()
		}
	})
	b.Run("write-read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += dm.CloneAddDynamic(fresh...).QueryView().M()
		}
	})
	_ = sink
}
