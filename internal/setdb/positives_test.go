package setdb

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/membership"
)

// leafPositives enumerates, one Contains at a time, the ids f answers for
// inside the leaves of the database's tree: a pruned tree's leaves are the
// leaf-sized ranges holding an id of any key.
func leafPositives(db *DB, f *bloom.Filter, occupied ...[]uint64) []uint64 {
	span := db.tree.LeafRange()
	leaves := map[uint64]bool{}
	for _, ids := range occupied {
		for _, x := range ids {
			leaves[x/span] = true
		}
	}
	var out []uint64
	for x := uint64(0); x < db.opts.Namespace; x++ {
		if (!db.opts.Pruned || leaves[x/span]) && f.Contains(x) {
			out = append(out, x)
		}
	}
	return out
}

// warmUp samples key until its published version has its positives and
// returns them.
func warmUp(t *testing.T, db *DB, key string) *core.Positives {
	t.Helper()
	v := db.tree.VersionFor(db.Filter(key))
	for i := 0; v.Positives() == nil; i++ {
		if i == 100_000 {
			t.Fatalf("%q is still descending after %d requests (%+v)", key, i, db.tree.PositivesStats())
		}
		if _, err := db.SampleMany(key, 16); err != nil {
			t.Fatal(err)
		}
	}
	return v.Positives()
}

// TestWarmRequestIsPicks: a request on a warm version is picks from the table
// it looked up once — on the same rng state, the ids that as many
// Tree.SampleVersion calls served from that table return — counted as warm
// draws, and all lost when the table is empty; a caller that counts Ops
// still descends.
func TestWarmRequestIsPicks(t *testing.T) {
	db, err := Open(Options{Namespace: 1 << 14, Bits: 1 << 14, K: 2, Seed: 11, TreeDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	data := rand.New(rand.NewSource(13))
	for range 600 {
		if err := db.Add("a", uint64(data.Intn(1<<14))); err != nil {
			t.Fatal(err)
		}
	}
	f := db.Filter("a")
	table := warmUp(t, db, "a")

	picker := &sampleWorker{rng: rand.New(rand.NewSource(5))}
	drawer := &sampleWorker{rng: rand.New(rand.NewSource(5))}
	picked := picker.pick(table, 200, nil)
	drawn, lost, err := drawer.draw(db.tree, f, 200, nil, nil)
	if err != nil || lost != 0 || drawer.tally != (core.Ops{Picked: 200}) || !slices.Equal(picked, drawn) {
		t.Fatalf("200 picks and 200 draws served from the table on one rng state differ (%d lost, %+v, err %v)", lost, drawer.tally, err)
	}

	before := db.Stats()
	ids, err := db.SampleMany("a", 200)
	if err != nil || len(ids) != 200 {
		t.Fatalf("%d ids, err %v", len(ids), err)
	}
	for _, x := range ids {
		if !f.Contains(x) {
			t.Fatalf("drew %d, not a positive of the version", x)
		}
	}
	st := db.Stats()
	if st.DrawsWarm-before.DrawsWarm != 200 || st.DrawsDescended != before.DrawsDescended || st.SampleDrawsLost != before.SampleDrawsLost {
		t.Fatalf("a warm request of 200: %d warm draws, %d descents, %d lost",
			st.DrawsWarm-before.DrawsWarm, st.DrawsDescended-before.DrawsDescended, st.SampleDrawsLost-before.SampleDrawsLost)
	}

	var ops core.Ops
	if _, err := db.SampleManyFrom(f, 50, 0, &ops); err != nil {
		t.Fatal(err)
	}
	before, st = st, db.Stats()
	if st.DrawsWarm != before.DrawsWarm || st.DrawsDescended-before.DrawsDescended != 50 || ops.NodesVisited == 0 {
		t.Fatalf("a counted request on a warm version: %d warm draws, %d descents, %d nodes visited",
			st.DrawsWarm-before.DrawsWarm, st.DrawsDescended-before.DrawsDescended, ops.NodesVisited)
	}

	if ids := db.pickFrom(new(core.Positives), 7); len(ids) != 0 {
		t.Fatalf("7 picks from an empty table returned %v", ids)
	}
	before, st = st, db.Stats()
	if st.DrawsWarm-before.DrawsWarm != 7 || st.SampleDrawsLost-before.SampleDrawsLost != 7 {
		t.Fatalf("7 picks from an empty table: %d warm draws, %d lost", st.DrawsWarm-before.DrawsWarm, st.SampleDrawsLost-before.SampleDrawsLost)
	}
}

// TestWarmVersionFollowsTreeGrowth is the growth gate at the request level,
// on a pruned database whose namespace divides into leaves of equal span:
// once a key's version is warm a request is all picks; after another key's
// write creates a leaf, the next request on that same version is served by
// descent and not from the table that predates the leaf; having paid again
// the version holds the new leaf's false positives and draws them; and a
// write that lands in existing leaves costs the warm version nothing.
func TestWarmVersionFollowsTreeGrowth(t *testing.T) {
	opts := Options{Namespace: 1 << 14, Bits: 1 << 14, K: 2, Seed: 11, TreeDepth: 4, Pruned: true}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	data := rand.New(rand.NewSource(12))
	low := make([]uint64, 900) // leaves 0–7 of 16
	for i := range low {
		low[i] = uint64(data.Intn(1 << 13))
	}
	if err := db.Add("a", low...); err != nil {
		t.Fatal(err)
	}
	f := db.Filter("a")
	table := warmUp(t, db, "a")
	if got, want := table.AppendAll(nil), leafPositives(db, f, low); !slices.Equal(got, want) {
		t.Fatalf("the warm table holds %d ids, the leaves %d positives", len(got), len(want))
	}

	before := db.Stats()
	if ids, err := db.SampleManyFrom(f, 50, 0, nil); err != nil || len(ids) != 50 {
		t.Fatalf("%d ids, err %v", len(ids), err)
	}
	if st := db.Stats(); st.DrawsWarm-before.DrawsWarm != 50 || st.DrawsDescended != before.DrawsDescended || st.EstimatesRemembered != before.EstimatesRemembered {
		t.Fatalf("a request on a warm version: %d warm draws, %d descents", st.DrawsWarm-before.DrawsWarm, st.DrawsDescended-before.DrawsDescended)
	}

	// Saturated growth: ids of "a" again under another key.
	if err := db.Add("b", low[:300]...); err != nil {
		t.Fatal(err)
	}
	if v := db.tree.VersionFor(f); v.Positives() != table || db.Stats().PositivesDropped != 0 {
		t.Fatal("a write into existing leaves dropped the table")
	}

	// One id in leaf 12: a new node.
	high := []uint64{12<<10 + 7}
	if err := db.Add("b", high...); err != nil {
		t.Fatal(err)
	}
	before = db.Stats()
	ids, err := db.SampleManyFrom(f, 50, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.DrawsWarm != before.DrawsWarm || st.DrawsDescended-before.DrawsDescended != 50 || st.PositivesDropped != 1 {
		t.Fatalf("the request after a leaf appeared: %d warm draws, %d descents, %d tables dropped",
			st.DrawsWarm-before.DrawsWarm, st.DrawsDescended-before.DrawsDescended, st.PositivesDropped)
	}
	want := leafPositives(db, f, low, high)
	for _, x := range ids {
		if _, found := slices.BinarySearch(want, x); !found {
			t.Fatalf("drew %d, not a positive of the version", x)
		}
	}

	again := warmUp(t, db, "a")
	if st := db.Stats(); st.PositivesScans != 2 || again == table {
		t.Fatalf("the version did not pay for a second table: %d scans", st.PositivesScans)
	}
	if got := again.AppendAll(nil); !slices.Equal(got, want) {
		t.Fatalf("the second table holds %d ids, the leaves %d positives", len(got), len(want))
	}
	fresh := want[len(want)-1]
	if fresh < 12<<10 {
		t.Fatal("the new leaf holds no positive of the version: the test needs one")
	}
	drawn := false
	for i := 0; i < 400 && !drawn; i++ {
		ids, err := db.SampleManyFrom(f, 256, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		drawn = slices.Contains(ids, fresh)
	}
	if !drawn {
		t.Fatalf("id %d of the new leaf was never drawn", fresh)
	}
}

// TestWriteHeavyKeysNeverScan drives the shape of the benchmark's mixed_wal
// workload in process — 70 % single draws, 20 % adds, 10 % removes over
// counting keys, ≈ 2.3 draws a filter version — and holds the rule to what
// it is for: no version comes near a scan's worth of ids tested, so none
// scans, and every draw is a descent.
func TestWriteHeavyKeysNeverScan(t *testing.T) {
	db, held := openShape(t, 1_000, 100_000, 40, 500, true)
	rng := rand.New(rand.NewSource(3))
	draws := uint64(0)
	for op := 0; op < 20_000; op++ {
		k := rng.Intn(len(held))
		key := fmt.Sprintf("k%d", k)
		switch p := rng.Intn(10); {
		case p < 7:
			if _, err := db.SampleMany(key, 1); err != nil {
				t.Fatal(err)
			}
			draws++
		case p < 9 || len(held[k]) < 8:
			ids := []uint64{uint64(rng.Intn(100_000)), uint64(rng.Intn(100_000))}
			if err := db.AddDynamic(key, ids...); err != nil {
				t.Fatal(err)
			}
			held[k] = append(held[k], ids...)
		default:
			n := 1 + rng.Intn(4)
			if err := db.RemoveDynamic(key, held[k][len(held[k])-n:]...); err != nil {
				t.Fatal(err)
			}
			held[k] = held[k][:len(held[k])-n]
		}
	}
	if st := db.Stats(); st.PositivesScans != 0 || st.PositivesBytes != 0 || st.DrawsWarm != 0 || st.DrawsDescended != draws {
		t.Fatalf("%d draws on write-heavy keys: %d scans, %d B packed, %d warm draws, %d descents",
			draws, st.PositivesScans, st.PositivesBytes, st.DrawsWarm, st.DrawsDescended)
	}
}

// TestReadMostlyKeyScansOnce: requests on 8 goroutines, single draws and
// frames, take one cold version of each backend's key past the price
// together, racing on its index and on the payment that scans. Exactly one scan runs per version however they
// interleave, no later request runs another, every id returned on either
// side of it is a positive of the version, and none is lost once it is
// warm. Run under -race.
func TestReadMostlyKeyScansOnce(t *testing.T) {
	for _, backend := range []membership.Kind{membership.KindBloom, membership.KindCounting} {
		t.Run(string(backend), func(t *testing.T) {
			opts, err := PlanOptions(0.9, 300, 20_000, 3)
			if err != nil {
				t.Fatal(err)
			}
			opts.Seed = 17
			if backend != membership.KindBloom {
				opts.Backend = backend
			}
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			data := rand.New(rand.NewSource(18))
			ids := make([]uint64, 300)
			for i := range ids {
				ids[i] = uint64(data.Intn(20_000))
			}
			if err := db.AddMany(Write{Key: "s", IDs: ids, Dynamic: backend != membership.KindBloom}); err != nil {
				t.Fatal(err)
			}
			f := db.Filter("s")
			want := leafPositives(db, f)

			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					n := 1 + g%3*20
					for i := 0; i < 600; i++ {
						got, err := db.SampleManyFrom(f, n, 0, nil)
						if err != nil {
							t.Error(err)
							return
						}
						for _, x := range got {
							if _, found := slices.BinarySearch(want, x); !found {
								t.Errorf("goroutine %d drew %d, not a positive", g, x)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			st := db.Stats()
			if st.PositivesScans != 1 || st.PositivesDeclined != 0 || st.PositivesDropped != 0 || st.DrawsWarm == 0 || st.DrawsDescended == 0 {
				t.Fatalf("eight goroutines on one version: %d scans, %d declined, %d dropped, %d warm draws, %d descents",
					st.PositivesScans, st.PositivesDeclined, st.PositivesDropped, st.DrawsWarm, st.DrawsDescended)
			}
			table := db.tree.VersionFor(f).Positives()
			if table == nil || !slices.Equal(table.AppendAll(nil), want) || table.Bytes() != st.PositivesBytes || table.Bytes() > f.SizeBytes() {
				t.Fatalf("the table does not hold the version's %d positives within its %d B", len(want), f.SizeBytes())
			}
			lost := st.SampleDrawsLost
			if got, err := db.SampleManyFrom(f, 5_000, 0, nil); err != nil || len(got) != 5_000 {
				t.Fatalf("a warm version returned %d of 5000 ids, err %v", len(got), err)
			}
			if st := db.Stats(); st.PositivesScans != 1 || st.SampleDrawsLost != lost {
				t.Fatalf("after the version went warm: %d scans, %d more draws lost", st.PositivesScans, st.SampleDrawsLost-lost)
			}
		})
	}
}

// TestReconstructFromServesTheVersion: a served reconstruction
// (AppendReconstructFrom) is every positive of the version's leaves — the
// enumeration, every stored id among them, and §6's walk under either rule
// inside it — appended to what dst holds. The first call on a version pays
// for its one scan; the second scans nothing and answers the same. Reconstruct
// is the library's walk, counted as the walk counts, and neither scans nor
// computes an estimate on the version's account. A nil
// filter and one of another profile are refused, with dst as it was.
func TestReconstructFromServesTheVersion(t *testing.T) {
	db, ids := openShape(t, 1_000, 100_000, 4, 1_000, false)
	f := db.Filter("k1")
	want := leafPositives(db, f, ids...)
	for _, x := range ids[1] {
		if _, found := slices.BinarySearch(want, x); !found {
			t.Fatalf("stored id %d is not among the version's %d positives", x, len(want))
		}
	}
	var counted, again core.Ops
	walk, err := db.tree.Reconstruct(f, core.PruneByEstimate, &counted)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := db.Reconstruct("k1", core.PruneByEstimate, &again); err != nil || !slices.Equal(got, walk) || again != counted {
		t.Fatalf("Reconstruct: %d ids counting %v, the walk %d counting %v (err %v)", len(got), &again, len(walk), &counted, err)
	}
	if st := db.Stats(); st.PositivesScans != 0 || st.EstimatesComputed != 0 {
		t.Fatalf("the library's walk: %d scans, %d estimates on the version's account", st.PositivesScans, st.EstimatesComputed)
	}

	for _, call := range []string{"first", "second"} {
		got, err := db.AppendReconstructFrom([]uint64{7}, f)
		if err != nil || len(got) == 0 || got[0] != 7 || !slices.Equal(got[1:], want) {
			t.Fatalf("%s call: %d ids after the one dst held, the version has %d positives (err %v)", call, len(got)-1, len(want), err)
		}
		if st := db.Stats(); st.PositivesScans != 1 || st.EstimatesComputed != 0 {
			t.Fatalf("after the %s call: %d scans, %d estimates computed", call, st.PositivesScans, st.EstimatesComputed)
		}
	}
	for _, rule := range []core.PruneRule{core.PruneByEstimate, core.PruneByAndBits} {
		walk, err := db.tree.Reconstruct(f, rule, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range walk {
			if _, found := slices.BinarySearch(want, x); !found {
				t.Fatalf("rule %d: the walk returns %d, which the version's positives lack", rule, x)
			}
		}
	}

	opts := db.opts
	opts.Seed++
	other, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	other.Add("s", 10)
	dst := []uint64{7}
	for name, g := range map[string]*bloom.Filter{"nil": nil, "foreign": other.Filter("s")} {
		if got, err := db.AppendReconstructFrom(dst, g); err == nil || !slices.Equal(got, dst) || (g == nil) != errors.Is(err, ErrNoSet) {
			t.Fatalf("a %s filter: %v, err %v", name, got, err)
		}
	}
}

// TestScanIsPricedAtTheLeaves is the sparse pruned tree — one key of 1 000
// ids under M = 10⁶, which occupy some 630 of a full tree's 1 024 leaves of
// 977 ids — on which a scan priced at M kept a version renting longer than
// the scan would have cost: the price is the ids the leaves hold, and the
// payment that reaches it, not one id before, runs the scan.
func TestScanIsPricedAtTheLeaves(t *testing.T) {
	const M = 1_000_000
	db, _ := openShape(t, 1_000, M, 1, 1_000, false)
	price := db.tree.LeafIDs()
	if span := db.tree.LeafRange(); price > 1_000*span || price > 3*M/4 || price < 500*(span-1) {
		t.Fatalf("%d nodes, leaves of up to %d ids, priced at %d", db.tree.Nodes(), span, price)
	}
	v := db.tree.VersionFor(db.Filter("k0"))
	v.Pay(price - 1)
	if v.Positives() != nil {
		t.Fatalf("a version scanned one id short of a price of %d", price)
	}
	v.Pay(1)
	if st := db.Stats(); st.PositivesScans != 1 || v.Positives() == nil {
		t.Fatalf("a version paid its price of %d ids: %d scans", price, st.PositivesScans)
	}
}
