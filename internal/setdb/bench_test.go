package setdb

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/core"
)

// populate fills db with nKeys tiny plain sets through batches of 1 024
// writes and returns the keys.
func populate(tb testing.TB, db *DB, nKeys int) []string {
	tb.Helper()
	keys := make([]string, 0, nKeys)
	batch := make([]Write, 0, 1024)
	for i := 0; i < nKeys; i++ {
		k := "k" + strconv.Itoa(i)
		keys = append(keys, k)
		batch = append(batch, Write{Key: k, IDs: []uint64{uint64(i) % 4096}})
		if len(batch) == cap(batch) || i == nKeys-1 {
			if err := db.ApplyBatch(batch); err != nil {
				tb.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	return keys
}

// BenchmarkAddDynamicManyKeys measures the per-write cost of a dynamic add
// into a database already holding many keys. Run with -benchmem: B/op is
// what one write allocates, which the keys beside it should not move
// (TestWriteCostIndependentOfKeyCount).
func BenchmarkAddDynamicManyKeys(b *testing.B) {
	db, err := Open(smallOptions())
	if err != nil {
		b.Fatal(err)
	}
	populate(b, db, 20_000)
	// Creating the written keys first keeps the timed loop pure update.
	dyn := make([]string, 64)
	for i := range dyn {
		dyn[i] = "dyn" + strconv.Itoa(i)
		if err := db.AddDynamic(dyn[i], uint64(i)%4096); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.AddDynamic(dyn[i%len(dyn)], uint64(i)%4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampleManySteadyState measures the batched sampling hot path.
// With the scratch-threaded descent the per-draw allocation count is
// zero; the small fixed allocs/op are the batch's setup (worker slots,
// rng, output buffers). Run with -benchmem to see it.
func BenchmarkSampleManySteadyState(b *testing.B) {
	opts, err := PlanOptions(0.9, 2000, 1_000_000, 3)
	if err != nil {
		b.Fatal(err)
	}
	opts.Seed = 7
	db, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]uint64, 2000)
	for i := range ids {
		ids[i] = uint64(i) * 499
	}
	if err := db.Add("bench", ids...); err != nil {
		b.Fatal(err)
	}
	const draws = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xs, err := db.SampleMany("bench", draws)
		if err != nil {
			b.Fatal(err)
		}
		if len(xs) == 0 {
			b.Fatal("no samples drawn")
		}
	}
}

// TestSampleManyAllocsPerDraw is the allocation regression gate for the
// steady-state sampling path: the per-draw descent is allocation-free
// (see core.Tree.SampleScratch), so a large batch's total allocations
// are a small per-call constant — amortized (far) below one allocation
// per draw. The exact-zero guarantee of the descent itself is asserted
// in internal/core's TestSampleScratchSteadyStateZeroAllocs.
func TestSampleManyAllocsPerDraw(t *testing.T) {
	opts, err := PlanOptions(0.9, 1000, 100_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts.Seed = 7
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, 1000)
	for i := range ids {
		ids[i] = uint64(i) * 97
	}
	if err := db.Add("bench", ids...); err != nil {
		t.Fatal(err)
	}
	const draws = 4096
	if _, err := db.SampleMany("bench", draws); err != nil { // warm pools
		t.Fatal(err)
	}
	var ops core.Ops
	allocs := testing.AllocsPerRun(5, func() {
		xs, err := db.SampleManyFrom(db.Filter("bench"), draws, 0, &ops)
		if err != nil {
			t.Fatal(err)
		}
		if len(xs) == 0 {
			t.Fatal("no samples drawn")
		}
	})
	if perDraw := allocs / draws; perDraw > 0.05 {
		t.Fatalf("steady-state SampleMany allocates %.3f/draw (%v per %d-draw batch), want amortized ~0",
			perDraw, allocs, draws)
	}
}

// BenchmarkSampleManyVersion times one request on the two halves of a filter
// version's life, on the benchmark's batch shape (M = 10⁶, depth 7, 64 draws
// a frame) and point shape (M = 10⁵, depth 8, one draw): cold, the indexed
// descent with every estimate the index covers remembered — what a version
// serves until it has tested a scan's worth of ids, held there by counting
// Ops — and warm, picks from the version's packed positives; and the same
// request asked for exactly (SampleExactFrom): exact-first on a version
// nobody has drawn from (a clone of the filter each iteration), which runs
// the version's scan before it picks, and exact-warm. Run it at -cpu 1
// against the parent commit's binary to time the layer in pairs; the result
// slice is the one allocation of every side but exact-first.
func BenchmarkSampleManyVersion(b *testing.B) {
	for _, shape := range []struct {
		name               string
		setSize, namespace uint64
		keys, draws        int
	}{
		{"batch", 10_000, 1_000_000, 16, 64},
		{"point", 1_000, 100_000, 50, 1},
	} {
		db, _ := openShape(b, shape.setSize, shape.namespace, shape.keys, int(shape.setSize), false)
		// More than the price on either shape, so nil Ops is warm from here
		// on; the counted requests fill the index on the way.
		f := db.Filter("k3")
		for tested := uint64(0); tested < 2*shape.namespace; {
			var ops core.Ops
			if _, err := db.SampleManyFrom(f, 64, 0, &ops); err != nil {
				b.Fatal(err)
			}
			if _, err := db.SampleManyFrom(f, 64, 0, nil); err != nil {
				b.Fatal(err)
			}
			tested += ops.Memberships
		}
		if db.tree.VersionFor(f).Positives() == nil {
			b.Fatal("the version never went warm")
		}
		for _, side := range []struct {
			name string
			ops  *core.Ops
		}{{"cold", new(core.Ops)}, {"warm", nil}} {
			b.Run(shape.name+"/"+side.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					xs, err := db.SampleManyFrom(f, shape.draws, 0, side.ops)
					if err != nil || len(xs) != shape.draws {
						b.Fatalf("%d ids, err %v", len(xs), err)
					}
				}
			})
		}
		for _, side := range []struct {
			name  string
			fresh bool
		}{{"exact-first", true}, {"exact-warm", false}} {
			b.Run(shape.name+"/"+side.name, func(b *testing.B) {
				b.ReportAllocs()
				f := db.Filter("k3")
				for i := 0; i < b.N; i++ {
					if side.fresh {
						f = f.Clone()
					}
					xs, err := db.SampleExactFrom(f, shape.draws)
					if err != nil || len(xs) != shape.draws {
						b.Fatalf("%d ids, err %v", len(xs), err)
					}
				}
			})
		}
	}
}

// BenchmarkReconstructVersion times one reconstruction of a key on the
// benchmark's batch shape (M = 10⁶, depth 7) and point shape (M = 10⁵,
// depth 8), each with a key of the design size, and the point shape with a
// key of design/40 too (25 ids, where §5.6's threshold loses most of a set):
// walk, §6's walk under PruneByAndBits counting Ops — the library's complete
// walk, for scale — and the library's read of the version's table
// (AppendReconstructFrom) in two arms: first, what the call that meets a
// fresh version pays (a clone of the filter each iteration: the version's
// one scan and its packing, then the read); and warm, the table read back.
// Every arm returns every stored id. Run it at -cpu 1 with -benchmem: the
// warm side's one allocation is the result. (The server writes the table's
// rendering instead: BenchmarkServedReconstruct in ./internal/server.)
func BenchmarkReconstructVersion(b *testing.B) {
	for _, shape := range []struct {
		name               string
		setSize, namespace uint64
		keys, stored       int
	}{
		{"batch", 10_000, 1_000_000, 16, 10_000},
		{"point", 1_000, 100_000, 50, 1_000},
		{"point-n25", 1_000, 100_000, 50, 25},
	} {
		db, ids := openShape(b, shape.setSize, shape.namespace, shape.keys, int(shape.setSize), false)
		// The key holds ids the tree's leaves already cover: no growth.
		stored := slices.Clone(ids[3][:shape.stored])
		if err := db.AddMany(Write{Key: "r", IDs: stored}); err != nil {
			b.Fatal(err)
		}
		f := db.Filter("r")
		served, err := db.AppendReconstructFrom(nil, f)
		if err != nil {
			b.Fatal(err)
		}
		for _, x := range stored {
			if _, found := slices.BinarySearch(served, x); !found {
				b.Fatalf("stored id %d is not among the %d served", x, len(served))
			}
		}
		slices.Sort(stored)
		floor := len(slices.Compact(stored)) // every stored id
		for _, side := range []string{"walk", "first", "warm"} {
			b.Run(shape.name+"/"+side, func(b *testing.B) {
				b.ReportAllocs()
				f := f
				var ops core.Ops
				for i := 0; i < b.N; i++ {
					var ids []uint64
					var err error
					switch side {
					case "walk":
						ids, err = db.tree.Reconstruct(f, core.PruneByAndBits, &ops)
					case "first":
						f = f.Clone()
						fallthrough
					default:
						ids, err = db.AppendReconstructFrom(nil, f)
					}
					if err != nil || len(ids) < floor {
						b.Fatalf("%d ids of %d stored, err %v", len(ids), floor, err)
					}
				}
			})
		}
	}
}

// BenchmarkIngest loads a fresh pruned database the way the served
// benchmark's set-up does, in process: every key's distinct uniform ids, in
// batches of at most 1 000 sets and 50 000 ids, each one ApplyBatch. point
// is 2 000 plain keys of 1 000 ids in M = 10⁵, batch 16 plain keys of 10 000
// in M = 10⁶, and mixed 1 000 dynamic counting keys of 500 in M = 10⁵; the
// filters are planned for accuracy 0.9 at each shape's set size, k = 3. An
// op is one whole ingest. Its batches are past core.GrowRun ids, so each
// grows the tree beside its build, in one walk that boxes each changed node
// once, from the writes' own id lists. At GOMAXPROCS > 1 the build spreads
// the batch's keys over up to GOMAXPROCS goroutines, and the walk forks
// while a batch holds at least core.GrowRun ids the tree has not grown yet:
// run it at -cpu 1 and -cpu 2.
func BenchmarkIngest(b *testing.B) {
	for _, shape := range []struct {
		name         string
		M, setSize   uint64
		keys, perKey int
		dynamic      bool
	}{
		{"point", 100_000, 1_000, 2_000, 1_000, false},
		{"batch", 1_000_000, 10_000, 16, 10_000, false},
		{"mixed", 100_000, 1_000, 1_000, 500, true},
	} {
		opts, err := PlanOptions(0.9, shape.setSize, shape.M, 3)
		if err != nil {
			b.Fatal(err)
		}
		opts.Pruned = true
		rng := rand.New(rand.NewSource(1))
		var batches [][]Write
		var batch []Write
		ids := 0
		for k := 0; k < shape.keys; k++ {
			if len(batch) == 1_000 || ids+shape.perKey > 50_000 {
				batches, batch, ids = append(batches, batch), nil, 0
			}
			set := map[uint64]bool{}
			w := Write{Key: "k" + strconv.Itoa(k), Dynamic: shape.dynamic}
			for len(w.IDs) < shape.perKey {
				if x := uint64(rng.Int63n(int64(shape.M))); !set[x] {
					set[x] = true
					w.IDs = append(w.IDs, x)
				}
			}
			batch, ids = append(batch, w), ids+shape.perKey
		}
		batches = append(batches, batch)
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db, err := Open(opts)
				if err != nil {
					b.Fatal(err)
				}
				for _, batch := range batches {
					if err := db.ApplyBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
