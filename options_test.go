package bloomsample_test

import (
	"errors"
	"math/rand"
	"testing"

	bloomsample "repro"
)

func TestOptionsOpenWithBackend(t *testing.T) {
	db, err := bloomsample.Open(100_000,
		bloomsample.WithAccuracy(0.9),
		bloomsample.WithBackend(bloomsample.BackendCuckoo),
		bloomsample.WithSeed(11),
		bloomsample.WithPruned(true))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := db.Options().Backend; got != bloomsample.BackendCuckoo {
		t.Fatalf("Backend = %q, want cuckoo", got)
	}
	if !db.Options().Pruned {
		t.Fatal("WithPruned(true) not applied")
	}
	if db.Options().Seed != 11 {
		t.Fatalf("Seed = %d, want 11", db.Options().Seed)
	}

	if err := db.AddDynamic("d", 1, 2, 3); err != nil {
		t.Fatalf("AddDynamic: %v", err)
	}
	if err := db.RemoveDynamic("d", 2); err != nil {
		t.Fatalf("RemoveDynamic: %v", err)
	}
	if db.Membership("d").Backend() != bloomsample.BackendCuckoo {
		t.Fatal("dynamic set not cuckoo-backed")
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := db.Sample("d", rng, nil); err != nil && !errors.Is(err, bloomsample.ErrNoSample) {
		t.Fatalf("Sample: %v", err)
	}
	if st := db.Stats(); st.Backend.Kind != string(bloomsample.BackendCuckoo) {
		t.Fatalf("Stats().Backend.Kind = %q, want cuckoo", st.Backend.Kind)
	}
}

func TestDynamicMembershipFacade(t *testing.T) {
	for _, kind := range []bloomsample.BackendKind{bloomsample.BackendCounting, bloomsample.BackendCuckoo} {
		m, err := bloomsample.NewDynamicMembership(1<<12, 3,
			bloomsample.WithBackend(kind), bloomsample.WithSeed(5))
		if err != nil {
			t.Fatalf("%s: NewDynamicMembership: %v", kind, err)
		}
		m2 := m.CloneAddDynamic(8, 16)
		m3, err := m2.CloneRemove(8)
		if err != nil {
			t.Fatalf("%s: CloneRemove: %v", kind, err)
		}
		if m3.Contains(8) || !m3.Contains(16) {
			t.Fatalf("%s: membership wrong after remove", kind)
		}
		data, err := m3.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: MarshalBinary: %v", kind, err)
		}
		back, err := bloomsample.UnmarshalMembership(data)
		if err != nil {
			t.Fatalf("%s: UnmarshalMembership: %v", kind, err)
		}
		if back.Backend() != kind || !back.Contains(16) {
			t.Fatalf("%s: round-trip lost state", kind)
		}
		if _, err := m2.CloneRemove(999); !errors.Is(err, bloomsample.ErrNotMember) {
			t.Fatalf("%s: remove of non-member = %v, want ErrNotMember", kind, err)
		}
	}
}
