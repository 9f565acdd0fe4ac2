package membership

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bloom"
	"repro/internal/hashfam"
)

// Conformance suite: every dynamic backend must satisfy the same
// contract — add/contains/delete round-trips, immutable copy-on-write
// versions (checked for real under -race), marshal round-trips through
// the envelope, and a false-positive rate within the planned bound.
// The table is the single place a new backend registers to inherit the
// whole suite.

var conformanceKinds = []Kind{KindCounting}

func testFamily(t testing.TB) hashfam.Family {
	t.Helper()
	fam, err := hashfam.New(hashfam.DefaultKind, 1<<14, 3, 42)
	if err != nil {
		t.Fatalf("hashfam.New: %v", err)
	}
	return fam
}

func TestConformanceAddContainsDelete(t *testing.T) {
	for _, kind := range conformanceKinds {
		t.Run(string(kind), func(t *testing.T) {
			m, err := NewDynamicWith(kind, testFamily(t), 0, nil)
			if err != nil {
				t.Fatalf("NewDynamicWith: %v", err)
			}
			if m.Backend() != kind {
				t.Fatalf("Backend() = %q, want %q", m.Backend(), kind)
			}
			ids := []uint64{1, 7, 99, 1 << 40, 12345}
			m2 := m.CloneAddDynamic(ids...)
			for _, id := range ids {
				if !m2.Contains(id) {
					t.Fatalf("added id %d not contained", id)
				}
			}
			if m2.Live() != uint64(len(ids)) {
				t.Fatalf("Live() = %d, want %d", m2.Live(), len(ids))
			}
			m3, err := m2.CloneRemove(7, 99)
			if err != nil {
				t.Fatalf("CloneRemove: %v", err)
			}
			if m3.Contains(7) || m3.Contains(99) {
				t.Fatal("removed ids still contained")
			}
			for _, id := range []uint64{1, 1 << 40, 12345} {
				if !m3.Contains(id) {
					t.Fatalf("remaining id %d lost by removal", id)
				}
			}
			if m3.Live() != uint64(len(ids)-2) {
				t.Fatalf("Live() after remove = %d, want %d", m3.Live(), len(ids)-2)
			}
			// Removing a non-member is an error and leaves the set intact
			// (all-or-nothing): 7 was already removed.
			if _, err := m3.CloneRemove(1, 7); err == nil {
				t.Fatal("CloneRemove of non-member succeeded")
			}
			if !m3.Contains(1) {
				t.Fatal("failed batch removal mutated the receiver")
			}
		})
	}
}

func TestConformanceCopyOnWriteIsolation(t *testing.T) {
	// A published version must never change under later clones. Readers
	// hammer the original membership and its query view while a writer
	// derives clone after clone; run with -race this doubles as a data
	// race check on the clone paths.
	for _, kind := range conformanceKinds {
		t.Run(string(kind), func(t *testing.T) {
			base, err := NewDynamicWith(kind, testFamily(t), 0, []uint64{10, 20, 30})
			if err != nil {
				t.Fatalf("NewDynamicWith: %v", err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					held := []uint64{10, 20, 30}
					out := make([]bool, len(held))
					var scratch []uint64
					for {
						// Each reader asks for the view itself: the first
						// asks race the writer's first clones, which carry
						// the view on only once it is there.
						view := base.QueryView()
						if scratch = base.ContainsBatch(held, out, scratch); !out[0] || !out[1] || !out[2] {
							t.Error("published version lost a member to a batched probe")
							return
						}
						select {
						case <-stop:
							return
						default:
						}
						if !base.Contains(10) || !base.Contains(20) || !base.Contains(30) {
							t.Error("published version lost a member")
							return
						}
						if base.Contains(555) {
							t.Error("published version gained a member")
							return
						}
						if !view.Contains(10) {
							t.Error("query view lost a member")
							return
						}
						if base.Live() != 3 {
							t.Error("published version's Live changed")
							return
						}
					}
				}()
			}
			cur := base
			for i := uint64(0); i < 200; i++ {
				// Straight from the version the readers hold, both ways…
				if less, err := base.CloneAddDynamic(5000+i).CloneRemove(20, 5000+i); err != nil || less.QueryView().Contains(555) {
					t.Fatalf("clone of the published version: %v", err)
				}
				// …and down a chain of versions of its own.
				cur = cur.CloneAddDynamic(1000 + i)
				if i%3 == 0 {
					next, err := cur.CloneRemove(1000 + i)
					if err != nil {
						t.Fatalf("CloneRemove: %v", err)
					}
					cur = next
				}
			}
			close(stop)
			wg.Wait()
			if base.Contains(555) || base.Live() != 3 {
				t.Fatal("base mutated by cloning")
			}
		})
	}
}

func TestConformanceMarshalRoundTrip(t *testing.T) {
	for _, kind := range conformanceKinds {
		t.Run(string(kind), func(t *testing.T) {
			ids := []uint64{3, 5, 8, 13, 1 << 33}
			m, err := NewDynamicWith(kind, testFamily(t), 0, ids)
			if err != nil {
				t.Fatalf("NewDynamicWith: %v", err)
			}
			m2, err := m.CloneRemove(8)
			if err != nil {
				t.Fatalf("CloneRemove: %v", err)
			}
			data, err := m2.MarshalBinary()
			if err != nil {
				t.Fatalf("MarshalBinary: %v", err)
			}
			decoded, err := Unmarshal(data)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			got, ok := decoded.(DynamicMembership)
			if !ok {
				t.Fatalf("decoded %q is not a DynamicMembership", decoded.Backend())
			}
			if got.Backend() != kind {
				t.Fatalf("decoded Backend() = %q, want %q", got.Backend(), kind)
			}
			if got.Live() != m2.Live() {
				t.Fatalf("decoded Live() = %d, want %d", got.Live(), m2.Live())
			}
			for _, id := range []uint64{3, 5, 13, 1 << 33} {
				if !got.Contains(id) {
					t.Fatalf("decoded filter lost member %d", id)
				}
			}
			// The decoded value must stay fully usable: add, remove,
			// re-marshal.
			got2 := got.CloneAddDynamic(777)
			if !got2.Contains(777) {
				t.Fatal("decoded filter rejects further adds")
			}
			if _, err := got2.MarshalBinary(); err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
		})
	}
}

func TestConformanceFalsePositiveBound(t *testing.T) {
	for _, kind := range conformanceKinds {
		t.Run(string(kind), func(t *testing.T) {
			fam := testFamily(t)
			const n = 1000
			ids := make([]uint64, n)
			for i := range ids {
				ids[i] = uint64(i) * 2 // members even, probes odd
			}
			m, err := NewDynamicWith(kind, fam, n, ids)
			if err != nil {
				t.Fatalf("NewDynamicWith: %v", err)
			}
			const probes = 100_000
			fp := 0
			for i := 0; i < probes; i++ {
				if m.Contains(uint64(i)*2 + 1) {
					fp++
				}
			}
			rate := float64(fp) / probes
			// The counting filter realizes the planned Bloom rate. Allow
			// 3x slack over the Bloom design rate for sampling noise.
			bound := 3 * bloom.FalsePositiveRate(fam.M(), fam.K(), n)
			if bound < 1e-3 {
				bound = 1e-3
			}
			if rate > bound {
				t.Fatalf("false-positive rate %.5f exceeds bound %.5f", rate, bound)
			}
		})
	}
}

func TestConformanceQueryViewTracksAdds(t *testing.T) {
	// The query view is the tree-facing projection: it must cover every
	// live member after any sequence of adds and removes.
	for _, kind := range conformanceKinds {
		t.Run(string(kind), func(t *testing.T) {
			m, err := NewDynamicWith(kind, testFamily(t), 0, nil)
			if err != nil {
				t.Fatalf("NewDynamicWith: %v", err)
			}
			cur := m
			for i := uint64(0); i < 500; i++ {
				cur = cur.CloneAddDynamic(i * 3)
				if i%5 == 4 {
					next, err := cur.CloneRemove(i * 3)
					if err != nil {
						t.Fatalf("CloneRemove: %v", err)
					}
					cur = next
				}
			}
			view := cur.QueryView()
			for i := uint64(0); i < 500; i++ {
				if i%5 == 4 {
					continue // removed; the view covers it only as a false positive
				}
				if !cur.Contains(i * 3) {
					t.Fatalf("live member %d lost", i*3)
				}
				if !view.Contains(i * 3) {
					t.Fatalf("query view misses live member %d", i*3)
				}
			}
		})
	}
}

func TestConformanceQueryViewAfterWriteChains(t *testing.T) {
	// Whatever chain of adds, removes and reads led to a version, its
	// query view holds every live id. The counting backend's view is the
	// bit vector its writes maintain, and owes more: it is the projection
	// of the version's counters — checked against a decoded copy of the
	// counters — under the version's own live count.
	for _, kind := range conformanceKinds {
		t.Run(string(kind), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			cur, err := NewDynamicWith(kind, testFamily(t), 0, nil)
			if err != nil {
				t.Fatalf("NewDynamicWith: %v", err)
			}
			var live []uint64
			for step := 0; step < 600; step++ {
				switch r := rng.Intn(10); {
				case r < 5 || len(live) < 4:
					batch := make([]uint64, 1+rng.Intn(4))
					for i := range batch {
						batch[i] = uint64(rng.Intn(2000))
					}
					cur = cur.CloneAddDynamic(batch...)
					live = append(live, batch...)
				case r < 8:
					n := 1 + rng.Intn(min(4, len(live)))
					rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
					if cur, err = cur.CloneRemove(live[:n]...); err != nil {
						t.Fatalf("step %d: CloneRemove of live ids: %v", step, err)
					}
					live = live[n:]
				default:
					cur.QueryView() // a read: later versions derive from a snapshotted one
				}
				if step%7 != 0 {
					continue // most versions are never read, as on a server
				}
				view := cur.QueryView()
				for _, id := range live {
					if !view.Contains(id) {
						t.Fatalf("step %d: the query view misses live id %d", step, id)
					}
				}
				cs, ok := cur.(interface{ Counting() *bloom.CountingFilter })
				if !ok {
					continue
				}
				data, err := cs.Counting().MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				decoded, err := bloom.UnmarshalCounting(data)
				if err != nil {
					t.Fatal(err)
				}
				if fresh := decoded.Snapshot(); !view.Equal(fresh) || view.SetBits() != fresh.SetBits() {
					t.Fatalf("step %d: the view is not the projection of the counters", step)
				}
				if view.Insertions() != cur.Live() || cur.Live() != uint64(len(live)) {
					t.Fatalf("step %d: view counts %d insertions, Live() = %d, model holds %d", step, view.Insertions(), cur.Live(), len(live))
				}
			}
		})
	}
}
