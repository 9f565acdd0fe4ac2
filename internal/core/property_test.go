package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hashfam"
)

// quickTree builds a small tree with parameters derived from fuzz input.
func quickTree(seed uint64, depthSel, kindSel uint8, pruned bool, occupied []uint64) (*Tree, error) {
	kinds := hashfam.Kinds()
	cfg := Config{
		Namespace: 4096,
		Bits:      2048 + seed%4096,
		K:         3,
		HashKind:  kinds[int(kindSel)%len(kinds)],
		Seed:      seed,
		Depth:     1 + int(depthSel)%8,
	}
	if pruned {
		return BuildPruned(cfg, occupied)
	}
	return BuildTree(cfg)
}

// Property: PruneByAndBits reconstruction contains every inserted element
// (no false negatives), for arbitrary parameters, hash families and sets.
func TestQuickReconstructSuperset(t *testing.T) {
	f := func(seed uint64, depthSel, kindSel uint8, raw []uint16) bool {
		tree, err := quickTree(seed, depthSel, kindSel, false, nil)
		if err != nil {
			return false
		}
		q := tree.NewQueryFilter()
		set := map[uint64]bool{}
		for _, r := range raw {
			x := uint64(r) % 4096
			q.Add(x)
			set[x] = true
		}
		if len(set) == 0 {
			return true
		}
		got, err := tree.Reconstruct(q, PruneByAndBits, nil)
		if err != nil {
			return false
		}
		found := map[uint64]bool{}
		for _, x := range got {
			if !q.Contains(x) {
				return false // must also be a positive
			}
			found[x] = true
		}
		for x := range set {
			if !found[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every sample is a positive of the query filter, across
// arbitrary configurations.
func TestQuickSampleIsPositive(t *testing.T) {
	f := func(seed uint64, depthSel, kindSel uint8, raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		tree, err := quickTree(seed, depthSel, kindSel, false, nil)
		if err != nil {
			return false
		}
		q := tree.NewQueryFilter()
		for _, r := range raw {
			q.Add(uint64(r) % 4096)
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		for i := 0; i < 5; i++ {
			x, err := tree.Sample(q, rng, nil)
			if err == ErrNoSample {
				continue // permitted only via false-positive paths; rare
			}
			if err != nil || !q.Contains(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a pruned tree over the inserted elements reconstructs every
// inserted element under PruneByAndBits, like the full tree.
func TestQuickPrunedReconstructSuperset(t *testing.T) {
	f := func(seed uint64, depthSel, kindSel uint8, raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		occ := make([]uint64, 0, len(raw))
		for _, r := range raw {
			occ = append(occ, uint64(r)%4096)
		}
		tree, err := quickTree(seed, depthSel, kindSel, true, occ)
		if err != nil {
			return false
		}
		q := tree.NewQueryFilter()
		for _, x := range occ {
			q.Add(x)
		}
		got, err := tree.Reconstruct(q, PruneByAndBits, nil)
		if err != nil {
			return false
		}
		found := map[uint64]bool{}
		for _, x := range got {
			found[x] = true
		}
		for _, x := range occ {
			if !found[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: dynamic insertion is equivalent to batch pruned construction
// — same node count and the same vector at every node.
func TestQuickInsertEquivalentToBatchBuild(t *testing.T) {
	f := func(seed uint64, depthSel, kindSel uint8, raw []uint16) bool {
		occ := make([]uint64, 0, len(raw))
		seen := map[uint64]bool{}
		for _, r := range raw {
			x := uint64(r) % 4096
			if !seen[x] {
				seen[x] = true
				occ = append(occ, x)
			}
		}
		batch, err := quickTree(seed, depthSel, kindSel, true, occ)
		if err != nil {
			return false
		}
		dyn, err := quickTree(seed, depthSel, kindSel, true, nil)
		if err != nil {
			return false
		}
		for _, x := range occ {
			if err := dyn.Insert(x); err != nil {
				return false
			}
		}
		if batch.Nodes() != dyn.Nodes() {
			return false
		}
		return bytes.Equal(nodeBytes(batch), nodeBytes(dyn))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: serialization round-trips byte-exactly for arbitrary trees.
func TestQuickTreeMarshalRoundTrip(t *testing.T) {
	f := func(seed uint64, depthSel, kindSel uint8, pruned bool, raw []uint16) bool {
		occ := make([]uint64, 0, len(raw))
		for _, r := range raw {
			occ = append(occ, uint64(r)%4096)
		}
		tree, err := quickTree(seed, depthSel, kindSel, pruned, occ)
		if err != nil {
			return false
		}
		var b1 bytes.Buffer
		if _, err := tree.WriteTo(&b1); err != nil {
			return false
		}
		got, err := ReadTree(bytes.NewReader(b1.Bytes()))
		if err != nil {
			return false
		}
		var b2 bytes.Buffer
		if _, err := got.WriteTo(&b2); err != nil {
			return false
		}
		return bytes.Equal(b1.Bytes(), b2.Bytes()) && bytes.Equal(nodeBytes(got), nodeBytes(tree))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: SampleN without replacement returns a subset of the
// PruneByAndBits reconstruction (the complete positive set).
func TestQuickSampleNSubsetOfReconstruction(t *testing.T) {
	f := func(seed uint64, kindSel uint8, raw []uint16, r uint8) bool {
		if len(raw) == 0 {
			return true
		}
		tree, err := quickTree(seed, 6, kindSel, false, nil)
		if err != nil {
			return false
		}
		q := tree.NewQueryFilter()
		for _, v := range raw {
			q.Add(uint64(v) % 4096)
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		got, err := tree.SampleN(q, int(r%50)+1, false, rng, nil)
		if err != nil {
			return false
		}
		all, err := tree.Reconstruct(q, PruneByAndBits, nil)
		if err != nil {
			return false
		}
		in := map[uint64]bool{}
		for _, x := range all {
			in[x] = true
		}
		for _, x := range got {
			if !in[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: LeafRange and Depth are consistent — 2^depth leaves of
// LeafRange cover the namespace.
func TestQuickLeafRangeCoversNamespace(t *testing.T) {
	f := func(nsSel uint16, depthSel uint8) bool {
		M := uint64(nsSel)%100000 + 16
		depth := int(depthSel) % 5
		cfg := Config{Namespace: M, Bits: 1024, K: 2, Depth: depth, HashKind: hashfam.KindFast}
		tree, err := BuildTree(cfg)
		if err != nil {
			return false
		}
		return tree.LeafRange()*(uint64(1)<<depth) >= M
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
