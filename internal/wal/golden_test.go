package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/membership"
	"repro/internal/setdb"
)

// The golden format test: a fixed script of group-commit batches must
// produce, byte for byte, the bundle and the WAL segment it produced when
// the digests below were recorded. The segment's was recorded at 7c5ba1e,
// the last commit with one map per storage kind in setdb; the bundle's was
// re-recorded when counting filters came to be written as BSC2 and trees
// as BST2 (the bundle before it is kept in testdata and must still boot).
// A change to how setdb stores its entries or applies a write may not move
// either: an old data directory has to boot into the state it was shut
// down in.

// goldenOptions is spelled out rather than planned, so that retuning the
// planner does not move the digests.
func goldenOptions(backend membership.Kind, pruned bool) setdb.Options {
	return setdb.Options{
		Namespace:     10_000,
		Bits:          4096,
		K:             3,
		Seed:          9,
		TreeDepth:     6,
		DesignSetSize: 64,
		Pruned:        pruned,
		Backend:       backend,
	}
}

// goldenScript covers every write the server can log (add and dynamic add,
// creating and extending; remove with ids) plus the unbind of a plain key,
// an empty set, and a large dynamic set that is then shrunk.
func goldenScript() [][]setdb.Write {
	big := make([]uint64, 200)
	for i := range big {
		big[i] = uint64(37*i + 5)
	}
	return [][]setdb.Write{
		{
			{Key: "plain-a", IDs: []uint64{1, 2, 3, 500}},
			{Key: "dyn-a", IDs: []uint64{10, 20, 30}, Dynamic: true},
		},
		{
			{Key: "plain-b", IDs: []uint64{7, 9000}},
			{Key: "dyn-b", IDs: []uint64{42}, Dynamic: true},
			{Key: "plain-a", IDs: []uint64{4}},
		},
		{
			{Key: "dyn-a", IDs: []uint64{20}, Dynamic: true, Remove: true},
			{Key: "dyn-a", IDs: []uint64{21, 22}, Dynamic: true},
		},
		{{Key: "plain-b", Remove: true}},
		{{Key: "plain-c"}},
		{{Key: "dyn-c", IDs: big, Dynamic: true}},
		{{Key: "dyn-c", IDs: big[50:120], Dynamic: true, Remove: true}},
		{{Key: "dyn-b", IDs: []uint64{42, 43}, Dynamic: true}},
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenSegment is the digest of the segment the script leaves behind; the
// log records writes, not backends.
const goldenSegment = "278ae59f1d5c0664d24a15ea01a09fab0926230c4e86f50754b716521f767d7c"

// goldenBundle is the digest of the counting-pruned bundle the script leaves
// behind: its sets as BSC2, each key's bit vector and counters of 2 or more,
// and its tree as BST2, the leaves' vectors alone.
const goldenBundle = "f9b4539798923b3be7d21aaa51b548af441f68048064f79d95b87e84fa713cd5"

// legacyBundle is that bundle as it was written before BSC2 and BST2
// (digest c20caad4…, at cd96ee1): each key's m counter bytes (BSC1) and
// every node's range and vector (BST1).
const (
	legacyBundle       = "testdata/golden-bsc1-bst1.snap"
	legacyBundleDigest = "c20caad4ae68e1d03eed8e851cd9d35ab9f23aeba5c40cd2ffb3f0fc80440f73"
)

// TestLegacyBundleBoots loads the kept bundle with setdb.ReadBundle and boots
// a data directory whose only file it is: both hold the scripted state,
// written back as the golden bundle.
func TestLegacyBundleBoots(t *testing.T) {
	data, err := os.ReadFile(legacyBundle)
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(data); got != legacyBundleDigest {
		t.Fatalf("%s has digest %s, kept as %s", legacyBundle, got, legacyBundleDigest)
	}
	loaded, err := setdb.ReadBundle(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	if got := digest(bundleBytes(t, loaded)); got != goldenBundle {
		t.Errorf("the loaded bundle re-serialises to digest %s, want the golden %s", got, goldenBundle)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, func() (*setdb.DB, error) {
		t.Fatal("fresh called on a directory with a snapshot")
		return nil, nil
	}, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if got := digest(bundleBytes(t, s.DB())); got != goldenBundle {
		t.Errorf("the booted directory serialises to digest %s, want the golden %s", got, goldenBundle)
	}
}

func TestGoldenBundleAndWAL(t *testing.T) {
	for _, c := range []struct {
		name   string
		opts   setdb.Options
		bundle string
	}{
		{
			name:   "counting-pruned",
			opts:   goldenOptions(membership.KindCounting, true),
			bundle: goldenBundle,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			db, err := setdb.Open(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range goldenScript() {
				if err := db.ApplyBatch(b); err != nil {
					t.Fatalf("ApplyBatch: %v", err)
				}
			}
			if got := digest(bundleBytes(t, db)); got != c.bundle {
				t.Errorf("bundle digest %s, recorded %s", got, c.bundle)
			}

			dir := t.TempDir()
			s, err := Open(dir, freshFunc(t, c.opts), Options{Fsync: FsyncNever})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			for _, b := range goldenScript() {
				if err := s.Apply(b); err != nil {
					t.Fatalf("Apply: %v", err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			seg, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(seg); got != goldenSegment {
				t.Errorf("WAL segment digest %s, recorded %s", got, goldenSegment)
			}

			// The directory those writes left behind boots into the same bundle.
			s2, err := Open(dir, func() (*setdb.DB, error) {
				t.Fatal("fresh called on a recovered directory")
				return nil, nil
			}, Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer s2.Close()
			if got := s2.Stats().ReplayedAtBoot; got != uint64(len(goldenScript())) {
				t.Errorf("ReplayedAtBoot = %d, want %d", got, len(goldenScript()))
			}
			if !bytes.Equal(bundleBytes(t, s2.DB()), bundleBytes(t, db)) {
				t.Error("the replayed directory and the scripted database serialize differently")
			}
		})
	}
}
