package bloomsample_test

import (
	"errors"
	"math/rand"
	"testing"

	bloomsample "repro"
)

func TestOptionsOpen(t *testing.T) {
	db, err := bloomsample.Open(100_000,
		bloomsample.WithAccuracy(0.9),
		bloomsample.WithSeed(11),
		bloomsample.WithPruned(true))
	if err != nil {
		t.Fatalf("Open: %v", err)
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
	if got := db.Membership("d").Backend(); got != "counting" {
		t.Fatalf("dynamic set on %q, want counting", got)
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := db.Sample("d", rng, nil); err != nil && !errors.Is(err, bloomsample.ErrNoSample) {
		t.Fatalf("Sample: %v", err)
	}
	if st := db.Stats(); st.Backend.Kind != "counting" {
		t.Fatalf("Stats().Backend.Kind = %q, want counting", st.Backend.Kind)
	}
}

func TestDynamicMembershipFacade(t *testing.T) {
	m, err := bloomsample.NewDynamicMembership(1<<12, 3, bloomsample.WithSeed(5))
	if err != nil {
		t.Fatalf("NewDynamicMembership: %v", err)
	}
	m2 := m.CloneAddDynamic(8, 16)
	m3, err := m2.CloneRemove(8)
	if err != nil {
		t.Fatalf("CloneRemove: %v", err)
	}
	if m3.Contains(8) || !m3.Contains(16) {
		t.Fatal("membership wrong after remove")
	}
	data, err := m3.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	back, err := bloomsample.UnmarshalMembership(data)
	if err != nil {
		t.Fatalf("UnmarshalMembership: %v", err)
	}
	if back.Backend() != m.Backend() || !back.Contains(16) {
		t.Fatal("round-trip lost state")
	}
	if _, err := m2.CloneRemove(999); !errors.Is(err, bloomsample.ErrNotMember) {
		t.Fatalf("remove of non-member = %v, want ErrNotMember", err)
	}
}
