package setdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bloom"
	"repro/internal/membership"
)

// The loader is the body of POST /v1/restore: what it reads comes off a
// socket. These tests hold it to the invariants the write path keeps (a
// key is bound once; only a dynamic-section value can remove ids) and to
// allocating no more than the bytes in hand can back.

// loaderOptions is a profile small enough that Open costs microseconds and
// a set serialises to tens of bytes: the fuzz target opens a database per
// input, and the fuzzer minimises every input that reaches new code byte by
// byte.
func loaderOptions(backend membership.Kind) Options {
	return Options{Namespace: 64, Bits: 64, K: 2, Seed: 7, TreeDepth: 1, DesignSetSize: 64, Backend: backend}
}

// bundleBytes is the bundle of db as it stands.
func bundleBytes(t testing.TB, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := db.SnapshotView().WriteBundleTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reload is db after a trip through its bundle.
func reload(t testing.TB, db *DB) *DB {
	t.Helper()
	got, err := ReadBundle(bytes.NewReader(bundleBytes(t, db)))
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	return got
}

// headerLen is where the header of db's bundle ends and its sections begin.
func headerLen(db *DB) int {
	o := db.Options()
	return len(bundleMagic) + len(dbMagic) + 8 + 8 + 4 + 8 + 4 + 8 + 1 + 1 + len(o.HashKind) + 1 + len(o.Backend)
}

// bundleOf returns the bundle of a fresh loaderOptions database after
// writes, split where its header ends: the sections and the tree flag are
// what a test forges and the fuzz target mutates.
func bundleOf(t testing.TB, backend membership.Kind, writes ...Write) (header, tail []byte) {
	t.Helper()
	db, err := Open(loaderOptions(backend))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyBatch(writes); err != nil {
		t.Fatal(err)
	}
	bundle, n := bundleBytes(t, db), headerLen(db)
	return bundle[:n:n], bundle[n:]
}

// entryEnd returns the offset just past the section entry starting at off:
// key length, key, envelope length, envelope.
func entryEnd(tail []byte, off int) int {
	off += 2 + int(binary.LittleEndian.Uint16(tail[off:]))
	return off + 4 + int(binary.LittleEndian.Uint32(tail[off:]))
}

// clashingTail is the sections of a database holding plain "k" and dynamic
// "d", with "d" renamed to "k" in place: a state no write path can produce.
// The loader used to accept it — Contains("k", 1) true through one map,
// ContainsDynamic("k", 4) through the other, and Add and AddDynamic on "k"
// both a key clash for ever.
func clashingTail(t testing.TB) (header, tail []byte) {
	header, tail = bundleOf(t, membership.KindCounting,
		Write{Key: "k", IDs: []uint64{1}}, Write{Key: "d", IDs: []uint64{4}, Dynamic: true})
	d := entryEnd(tail, 4) + 4 // past the plain section's count and one entry, and the dynamic count
	if string(tail[d+2:d+3]) != "d" {
		t.Fatalf("the dynamic section's first key is %q, not where the test looks for it", tail[d+2:d+3])
	}
	tail[d+2] = 'k'
	return header, tail
}

// forgedLengthTail is a plain section of one key whose envelope claims 4 GB
// and holds nothing: with its header, a bundle of under a hundred bytes
// that made the loader allocate the claim before reading.
func forgedLengthTail() []byte {
	tail := binary.LittleEndian.AppendUint32(nil, 1)
	tail = binary.LittleEndian.AppendUint16(tail, 1)
	tail = append(tail, 'k')
	return binary.LittleEndian.AppendUint32(tail, 1<<32-1)
}

func TestLoaderKeepsTheWritePathsInvariants(t *testing.T) {
	header, clash := clashingTail(t)
	_, twice := bundleOf(t, membership.KindCounting, Write{Key: "a", IDs: []uint64{1}}, Write{Key: "b", IDs: []uint64{2}})
	b := entryEnd(twice, 4)
	if string(twice[b+2:b+3]) != "b" {
		t.Fatalf("the plain section's second key is %q, not where the test looks for it", twice[b+2:b+3])
	}
	twice[b+2] = 'a'

	// A counting envelope moved into the plain section: with one map it
	// would load as a removable key that no write created as one.
	_, moved := bundleOf(t, membership.KindCounting, Write{Key: "d", IDs: []uint64{4}, Dynamic: true})
	misfiled := binary.LittleEndian.AppendUint32(nil, 1)
	misfiled = append(misfiled, moved[8:len(moved)-1]...) // the one entry, after both counts and before the flag
	misfiled = binary.LittleEndian.AppendUint32(misfiled, 0)
	misfiled = append(misfiled, 0)

	_, valid := bundleOf(t, membership.KindCounting, Write{Key: "k", IDs: []uint64{1}}, Write{Key: "d", IDs: []uint64{4}, Dynamic: true})
	if _, err := ReadBundle(bytes.NewReader(append(header, valid...))); err != nil {
		t.Fatalf("the bundle the forgeries start from does not load: %v", err)
	}
	for name, tail := range map[string][]byte{
		"one key in both sections":               clash,
		"one key twice in a section":             twice,
		"counting envelope in the plain section": misfiled,
	} {
		if db, err := ReadBundle(bytes.NewReader(append(header, tail...))); err == nil {
			t.Errorf("%s: loaded, with keys %v", name, db.Keys())
		}
	}
}

// readBundleCounted is ReadBundle, also reporting the bytes the process
// allocated meanwhile.
func readBundleCounted(bundle []byte) (*DB, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	db, err := ReadBundle(bytes.NewReader(bundle))
	runtime.ReadMemStats(&after)
	return db, after.TotalAlloc - before.TotalAlloc, err
}

func TestLoaderForgedSectionLength(t *testing.T) {
	header, _ := bundleOf(t, membership.KindCounting)
	forged := append(header, forgedLengthTail()...)
	_, allocated, err := readBundleCounted(forged)
	if err == nil {
		t.Fatal("a forged envelope length was accepted")
	}
	if allocated >= 1<<20 {
		t.Fatalf("refusing %d forged bytes allocated %d bytes", len(forged), allocated)
	}
}

// removedBackendBundle is a valid counting bundle whose header names the
// backend the repository no longer serves, in place of counting.
func removedBackendBundle(header, tail []byte) []byte {
	named := append([]byte(nil), header[:len(header)-1-len(membership.KindCounting)]...)
	named = append(named, byte(len("cuckoo")))
	named = append(named, "cuckoo"...)
	return append(named, tail...)
}

// FuzzReadBundleSets fuzzes the loader behind ReadBundle — the two keyed
// sections and the tree flag — under a fixed valid header: it must not
// panic, must not allocate beyond a small multiple of its input, and a
// database it accepts must re-serialise and reload to the same bytes.
//
// The header's own fields are not fuzzed (a forged depth or namespace makes
// Open build a huge tree), nor is the tree decoder behind flag 1 aimed at:
// bounding those belongs to the ROADMAP's correctness item. An input that
// does not begin with the bundle's magic is also read as a whole stream,
// which must refuse it: the sets without their container (a stream that
// begins SETDB2, the last seed) are not a database. A bundle whose header
// names the removed cuckoo backend is refused by name.
func FuzzReadBundleSets(f *testing.F) {
	script := []Write{
		{Key: "plain", IDs: []uint64{1, 2, 3}},
		{Key: "dyn", IDs: []uint64{1, 20, 30, 60}, Dynamic: true},
		{Key: "dyn", IDs: []uint64{20, 30}, Dynamic: true, Remove: true},
		{Key: "empty", Dynamic: true},
	}
	header, counting := bundleOf(f, membership.KindCounting, script...)
	removed := removedBackendBundle(header, counting)
	if _, err := ReadBundle(bytes.NewReader(removed)); err == nil || !strings.Contains(err.Error(), `backend "cuckoo" was removed`) {
		f.Fatalf("ReadBundle of a header naming cuckoo = %v, want the named refusal", err)
	}
	_, clash := clashingTail(f)
	for _, tail := range [][]byte{counting, removed, clash, forgedLengthTail()} {
		f.Add(tail)
	}
	// Truncations at each section boundary: before the plain section, after
	// it, and after the dynamic one (no tree flag).
	if n := binary.LittleEndian.Uint32(counting); n != 1 {
		f.Fatalf("the seed's plain section holds %d keys, want 1", n)
	}
	f.Add([]byte{})
	f.Add(counting[:entryEnd(counting, 4)])
	f.Add(counting[:len(counting)-1])
	f.Add(append(header[len(bundleMagic):], counting...))

	f.Fuzz(func(t *testing.T, tail []byte) {
		if !bytes.HasPrefix(tail, []byte(bundleMagic)) {
			if _, err := ReadBundle(bytes.NewReader(tail)); err == nil {
				t.Fatalf("a stream that begins %.7q was read as a bundle", tail)
			}
		}
		db, allocated, err := readBundleCounted(append(header, tail...))
		if limit := uint64(1<<20 + 64*len(tail)); allocated > limit {
			t.Fatalf("loading %d bytes allocated %d, over %d", len(tail), allocated, limit)
		}
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if _, err := db.SnapshotView().WriteBundleTo(&first); err != nil {
			t.Fatalf("an accepted database does not serialise: %v", err)
		}
		db2, err := ReadBundle(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("an accepted database does not reload: %v", err)
		}
		if _, err := db2.SnapshotView().WriteBundleTo(&second); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("a reloaded database serialises differently (err %v)", err)
		}
	})
}

// TestLoaderBuildsNoView: a restore checks every set against the database's
// hash family, and a counting set answers for its counters
// (MatchesFamily), not through a query view. A set built with another
// family is refused, in the words the view's comparison used.
func TestLoaderBuildsNoView(t *testing.T) {
	src, err := Open(loaderOptions(membership.KindCounting))
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c", "d"}
	for i, key := range keys {
		if err := src.AddDynamic(key, uint64(i), uint64(i)+10); err != nil {
			t.Fatal(err)
		}
	}
	db := reload(t, src)
	for i, key := range keys {
		if ok, err := db.Contains(key, uint64(i)+10); err != nil || !ok {
			t.Errorf("%q lost id %d (err %v)", key, i+10, err)
		}
	}

	// The sections of a seed-7 database under the header of a seed-8 one.
	other := loaderOptions(membership.KindCounting)
	other.Seed = 8
	odb, err := Open(other)
	if err != nil {
		t.Fatal(err)
	}
	header := headerLen(odb)
	_, err = ReadBundle(bytes.NewReader(append(bundleBytes(t, odb)[:header:header], bundleBytes(t, src)[header:]...)))
	const want = `setdb: dynamic set "a": bloom: incompatible filters: (m=64,k=2,fast,seed=7) vs (m=64,k=2,fast,seed=8)`
	if !errors.Is(err, bloom.ErrIncompatible) || err.Error() != want {
		t.Fatalf("a counting set of another family: err %v, want %s", err, want)
	}
}
