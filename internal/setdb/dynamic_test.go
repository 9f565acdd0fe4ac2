package setdb

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

func TestDynamicAddRemoveSample(t *testing.T) {
	db, err := Open(testOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if err := db.AddDynamic("community", 10, 20, 30, 40); err != nil {
		t.Fatal(err)
	}
	ok, err := db.Contains("community", 20)
	if err != nil || !ok {
		t.Fatalf("Contains = %v, %v", ok, err)
	}
	x, err := db.Sample("community", rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := db.Filter("community")
	if snap == nil || !snap.Contains(x) {
		t.Fatalf("sample %d not in snapshot", x)
	}

	// A member leaves the community.
	if err := db.RemoveDynamic("community", 20); err != nil {
		t.Fatal(err)
	}
	ok, _ = db.Contains("community", 20)
	if ok {
		t.Fatal("removed member still present")
	}
	recon, err := db.Reconstruct("community", core.PruneByAndBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range recon {
		if id == 20 {
			t.Fatal("removed member reconstructed")
		}
	}
	found := map[uint64]bool{}
	for _, id := range recon {
		found[id] = true
	}
	for _, id := range []uint64{10, 30, 40} {
		if !found[id] {
			t.Fatalf("remaining member %d missing from reconstruction", id)
		}
	}
}

func TestDynamicErrors(t *testing.T) {
	db, err := Open(testOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	if err := db.RemoveDynamic("nope", 1); err == nil {
		t.Fatal("remove from missing set accepted")
	}
	if _, err := db.Contains("nope", 1); err == nil {
		t.Fatal("contains on missing set accepted")
	}
	if _, err := db.Sample("nope", rng, nil); err == nil {
		t.Fatal("sample from missing set accepted")
	}
	if _, err := db.Reconstruct("nope", core.PruneByEstimate, nil); err == nil {
		t.Fatal("reconstruct of missing set accepted")
	}
	if db.Filter("nope") != nil || db.Membership("nope") != nil {
		t.Fatal("a missing set has a published version")
	}
	if err := db.AddDynamic("d", 1_000_000); err == nil {
		t.Fatal("out-of-namespace id accepted")
	}
	if err := db.AddDynamic("d", 1); err != nil {
		t.Fatal(err)
	}
	if err := db.RemoveDynamic("d", 2); err == nil {
		t.Fatal("remove of non-member accepted")
	}
}

// TestOneKeySpace states the contract of the one key space: a key holds one
// set, of the kind the write that created it named; the other kind's add
// clashes; every read serves either kind; Delete drops either kind, and a
// re-add starts a new key lifetime.
func TestOneKeySpace(t *testing.T) {
	db, err := Open(testOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add("k", 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := db.AddDynamic("k", 2); !errors.Is(err, ErrKeyClash) {
		t.Fatalf("dynamic add over a plain key: %v, want ErrKeyClash", err)
	}
	if err := db.AddDynamic("d", 2, 3, 4); err != nil {
		t.Fatal(err)
	}
	if err := db.Add("d", 3); !errors.Is(err, ErrKeyClash) {
		t.Fatalf("plain add over a dynamic key: %v, want ErrKeyClash", err)
	}
	if err := db.RemoveDynamic("k", 1); !errors.Is(err, ErrNoSet) {
		t.Fatalf("remove of ids from a plain key: %v, want ErrNoSet", err)
	}

	// One key space, listed once; the deprecated capability listing agrees.
	if keys := db.Keys(); !slices.Equal(keys, []string{"d", "k"}) || db.Len() != 2 {
		t.Fatalf("Keys = %v, Len = %d; want [d k], 2", keys, db.Len())
	}
	if keys := db.DynamicKeys(); !slices.Equal(keys, []string{"d"}) {
		t.Fatalf("DynamicKeys = %v, want [d]", keys)
	}
	if st := db.Stats(); st.Sets != 1 || st.DynamicSets != 1 {
		t.Fatalf("Stats counts %d plain and %d dynamic sets, want 1 and 1", st.Sets, st.DynamicSets)
	}

	// Every read serves either kind.
	rng := rand.New(rand.NewSource(5))
	for _, key := range []string{"k", "d"} {
		if ok, err := db.Contains(key, 3); err != nil || !ok {
			t.Fatalf("Contains(%s, 3) = %v, %v", key, ok, err)
		}
		if db.Filter(key) == nil || db.Membership(key) == nil {
			t.Fatalf("Filter/Membership(%s) is nil", key)
		}
		if x, err := db.Sample(key, rng, nil); err != nil || !db.Filter(key).Contains(x) {
			t.Fatalf("Sample(%s) = %d, %v", key, x, err)
		}
		if xs, err := db.SampleN(key, 2, true, rng, nil); err != nil || len(xs) == 0 {
			t.Fatalf("SampleN(%s) = %v, %v", key, xs, err)
		}
		if xs, err := db.SampleMany(key, 8); err != nil || len(xs) == 0 {
			t.Fatalf("SampleMany(%s) = %v, %v", key, xs, err)
		}
		if xs, err := db.Reconstruct(key, core.PruneByAndBits, nil); err != nil || !slices.Contains(xs, 3) {
			t.Fatalf("Reconstruct(%s) = %v, %v", key, xs, err)
		}
	}
	if est, err := db.IntersectionEstimate("k", "d"); err != nil || est <= 0 {
		t.Fatalf("IntersectionEstimate(k, d) = %v, %v; the sets share 2 and 3", est, err)
	}

	// Exact draws serve both kinds: they pick from the pinned version's
	// positives, which a removable set's query view has like any other.
	for _, key := range []string{"k", "d"} {
		f := db.Filter(key)
		ids, err := db.SampleExactFrom(f, 20)
		if err != nil || len(ids) != 20 {
			t.Fatalf("SampleExactFrom(%s) = %d ids, %v", key, len(ids), err)
		}
		for _, x := range ids {
			if !f.Contains(x) {
				t.Fatalf("exact draw %d from %s is not a positive of its version", x, key)
			}
		}
	}
	pinned := db.Filter("k")

	// Delete drops either kind; the key is then free for the other one, as
	// a new lifetime of which a filter held from the old one, being a pin
	// on the version it was read at, serves nothing.
	if !db.Delete("d") || db.Delete("d") {
		t.Fatal("Delete of a removable key: want true, then false")
	}
	if _, err := db.Contains("d", 2); !errors.Is(err, ErrNoSet) {
		t.Fatalf("deleted removable key still answers: %v", err)
	}
	if err := db.Add("d", 9); err != nil {
		t.Fatalf("plain add over a deleted dynamic key: %v", err)
	}
	if !db.Delete("k") {
		t.Fatal("Delete of a plain key returned false")
	}
	if err := db.AddDynamic("k", 1); err != nil {
		t.Fatalf("dynamic add over a deleted plain key: %v", err)
	}
	if ids, err := db.SampleExactFrom(pinned, 1); err != nil || len(ids) != 1 || !pinned.Contains(ids[0]) {
		t.Fatalf("the deleted lifetime's filter drew %v, %v; want a positive of the version it pinned", ids, err)
	}
}

func TestDynamicOnPrunedTreeGrows(t *testing.T) {
	db, err := Open(testOptions(t, true))
	if err != nil {
		t.Fatal(err)
	}
	before := db.Tree().Nodes()
	if err := db.AddDynamic("d", 999_999); err != nil {
		t.Fatal(err)
	}
	if db.Tree().Nodes() <= before {
		t.Fatal("pruned tree did not grow for dynamic insert")
	}
	rng := rand.New(rand.NewSource(3))
	x, err := db.Sample("d", rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Filter("d").Contains(x) {
		t.Fatalf("sample %d not positive", x)
	}
}

func TestDynamicChurn(t *testing.T) {
	// A community with heavy join/leave churn stays queryable and
	// reconstructs to exactly its current membership (modulo filter FPs).
	db, err := Open(testOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	live := map[uint64]bool{}
	for i := 0; i < 2000; i++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			// A random current member leaves.
			for id := range live {
				if err := db.RemoveDynamic("churn", id); err != nil {
					t.Fatal(err)
				}
				delete(live, id)
				break
			}
		} else {
			id := rng.Uint64() % 1_000_000
			if !live[id] {
				if err := db.AddDynamic("churn", id); err != nil {
					t.Fatal(err)
				}
				live[id] = true
			}
		}
	}
	recon, err := db.Reconstruct("churn", core.PruneByAndBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := map[uint64]bool{}
	for _, id := range recon {
		found[id] = true
	}
	for id := range live {
		if !found[id] {
			t.Fatalf("live member %d missing after churn", id)
		}
	}
}
