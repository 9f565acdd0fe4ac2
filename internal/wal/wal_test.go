package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/membership"
	"repro/internal/setdb"
)

// testOptions returns a small, fast database profile.
func testOptions(t *testing.T, backend membership.Kind) setdb.Options {
	t.Helper()
	opts, err := setdb.PlanOptions(0.9, 100, 10_000, 3)
	if err != nil {
		t.Fatalf("PlanOptions: %v", err)
	}
	opts.Pruned = true
	opts.Backend = backend
	return opts
}

func freshFunc(t testing.TB, opts setdb.Options) func() (*setdb.DB, error) {
	t.Helper()
	return func() (*setdb.DB, error) { return setdb.Open(opts) }
}

// bundleBytes serializes a database as a restore bundle for byte-exact
// comparison.
func bundleBytes(t testing.TB, db *setdb.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := db.SnapshotView().WriteBundleTo(&buf); err != nil {
		t.Fatalf("WriteBundleTo: %v", err)
	}
	return buf.Bytes()
}

// testBatches is a mixed workload: plain sets, dynamic adds, dynamic
// removes — one group-commit batch per entry.
func testBatches() [][]setdb.Write {
	var batches [][]setdb.Write
	for i := 0; i < 20; i++ {
		batches = append(batches, []setdb.Write{
			{Key: fmt.Sprintf("plain-%d", i%5), IDs: []uint64{uint64(i), uint64(i + 100)}},
			{Key: fmt.Sprintf("dyn-%d", i%3), IDs: []uint64{uint64(i + 200)}, Dynamic: true},
		})
	}
	// Remove some of the dynamic ids that are certainly present.
	batches = append(batches, []setdb.Write{
		{Key: "dyn-0", IDs: []uint64{200, 203}, Dynamic: true, Remove: true},
	})
	return batches
}

func TestRecordRoundTrip(t *testing.T) {
	writes := []setdb.Write{
		{Key: "plain", IDs: []uint64{1, 2, 1 << 40}},
		{Key: "dyn", IDs: []uint64{7}, Dynamic: true},
		{Key: "gone", IDs: []uint64{9}, Dynamic: true, Remove: true},
		{Key: "empty-ids", IDs: nil},
	}
	frame := appendRecord(nil, 42, writes)
	seq, got, consumed, err := decodeFrame(frame)
	if err != nil {
		t.Fatalf("decodeFrame: %v", err)
	}
	if seq != 42 || consumed != len(frame) {
		t.Fatalf("decodeFrame: seq=%d consumed=%d, want 42, %d", seq, consumed, len(frame))
	}
	if !reflect.DeepEqual(got, writes) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, writes)
	}

	// Two frames back to back scan as two records.
	frames := appendRecord(frame, 43, writes[:1])
	var seqs []uint64
	off, err := segScan(frames, func(s uint64, _ []setdb.Write) error {
		seqs = append(seqs, s)
		return nil
	})
	if err != nil || off != len(frames) {
		t.Fatalf("segScan: off=%d err=%v, want %d, nil", off, err, len(frames))
	}
	if !reflect.DeepEqual(seqs, []uint64{42, 43}) {
		t.Fatalf("segScan seqs = %v", seqs)
	}
}

func TestRecordDecodeRejectsDamage(t *testing.T) {
	frame := appendRecord(nil, 7, []setdb.Write{{Key: "k", IDs: []uint64{1, 2, 3}}})

	// Truncation anywhere inside the frame is a short record.
	for cut := 1; cut < len(frame); cut++ {
		if _, _, _, err := decodeFrame(frame[:cut]); err != errShortRecord {
			t.Fatalf("decodeFrame(cut %d) err = %v, want errShortRecord", cut, err)
		}
	}
	// Any flipped bit is a CRC mismatch (or a corrupt length).
	for i := 0; i < len(frame); i++ {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x80
		_, _, _, err := decodeFrame(mut)
		if err == nil {
			t.Fatalf("decodeFrame with byte %d flipped succeeded", i)
		}
	}
}

func TestStoreRecoversAllBackends(t *testing.T) {
	for _, kind := range []membership.Kind{membership.KindBloom, membership.KindCounting} {
		t.Run(string(kind), func(t *testing.T) {
			opts := testOptions(t, kind)
			dir := t.TempDir()

			s, err := Open(dir, freshFunc(t, opts), Options{Fsync: FsyncNever})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			batches := testBatches()
			if kind == membership.KindBloom {
				// The plain bloom backend has no dynamic (deletable) sets.
				var plain [][]setdb.Write
				for _, b := range batches {
					var keep []setdb.Write
					for _, w := range b {
						if !w.Dynamic {
							keep = append(keep, w)
						}
					}
					if len(keep) > 0 {
						plain = append(plain, keep)
					}
				}
				batches = plain
			}
			for _, b := range batches {
				if err := s.Apply(b); err != nil {
					t.Fatalf("Apply: %v", err)
				}
			}
			want := bundleBytes(t, s.DB())
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			s2, err := Open(dir, func() (*setdb.DB, error) {
				t.Fatal("fresh called on a recovered directory")
				return nil, nil
			}, Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer s2.Close()
			st := s2.Stats()
			if st.ReplayedAtBoot != uint64(len(batches)) {
				t.Fatalf("ReplayedAtBoot = %d, want %d", st.ReplayedAtBoot, len(batches))
			}
			if got := bundleBytes(t, s2.DB()); !bytes.Equal(got, want) {
				t.Fatalf("recovered bundle differs: %d vs %d bytes", len(got), len(want))
			}
		})
	}
}

func TestEmptyWAL(t *testing.T) {
	opts := testOptions(t, membership.KindCounting)
	dir := t.TempDir()
	s, err := Open(dir, freshFunc(t, opts), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := bundleBytes(t, s.DB())
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir, func() (*setdb.DB, error) {
		t.Fatal("fresh called with a snapshot on disk")
		return nil, nil
	}, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.ReplayedAtBoot != 0 || st.SkippedAtBoot != 0 || st.DroppedTailBytes != 0 {
		t.Fatalf("empty reopen stats = %+v, want zero boot counters", st)
	}
	if got := bundleBytes(t, s2.DB()); !bytes.Equal(got, want) {
		t.Fatal("empty recovered bundle differs")
	}
}

// TestSnapshotWithNoTail: a snapshot bounds the records a boot replays.
// Taken after all n batches the boot replays none; taken after k of them
// it replays exactly the n − k behind it; either way it recovers the
// pre-close state byte for byte. (TestStoreRecoversAllBackends is the far
// end: no snapshot, every batch replayed.)
func TestSnapshotWithNoTail(t *testing.T) {
	for _, tail := range []int{0, 5} {
		t.Run(fmt.Sprintf("tail=%d", tail), func(t *testing.T) { snapshotThenTail(t, tail) })
	}
}

func snapshotThenTail(t *testing.T, tail int) {
	opts := testOptions(t, membership.KindCounting)
	dir := t.TempDir()
	s, err := Open(dir, freshFunc(t, opts), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	batches := testBatches()
	for _, b := range batches[:len(batches)-tail] {
		if err := s.Apply(b); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	info, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if info.Seq == 0 || info.Bytes == 0 {
		t.Fatalf("SnapshotInfo = %+v, want nonzero seq and bytes", info)
	}
	for _, b := range batches[len(batches)-tail:] {
		if err := s.Apply(b); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	want := bundleBytes(t, s.DB())
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir, freshFunc(t, opts), Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.ReplayedAtBoot != uint64(tail) {
		t.Fatalf("ReplayedAtBoot = %d with %d batches behind the snapshot, want %d", st.ReplayedAtBoot, tail, tail)
	}
	if st.Seq == 0 {
		t.Fatal("recovered seq = 0, want the snapshot's covered seq")
	}
	if got := bundleBytes(t, s2.DB()); !bytes.Equal(got, want) {
		t.Fatal("recovered bundle differs from pre-close state")
	}
}

// TestOverlongKeyIsRefused: a write whose key is longer than
// setdb.MaxKeyLen — longer than a bundle or a log record can hold — is
// refused before it is logged, with the rest of its batch, so the directory
// goes on replaying every acknowledged write and snapshotting; a key of
// exactly MaxKeyLen bytes is held, logged, snapshotted and booted.
func TestOverlongKeyIsRefused(t *testing.T) {
	opts := testOptions(t, membership.KindCounting)
	dir := t.TempDir()
	s, err := Open(dir, freshFunc(t, opts), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	longest := strings.Repeat("k", setdb.MaxKeyLen)
	if err := s.Apply([]setdb.Write{{Key: "a", IDs: []uint64{1, 2}}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	overlong := []setdb.Write{{Key: "b", IDs: []uint64{3}}, {Key: longest + "k", IDs: []uint64{4}}}
	if err := s.Apply(overlong); !errors.Is(err, setdb.ErrKeyTooLong) {
		t.Fatalf("a %d-byte key: Apply returned %v, want ErrKeyTooLong", setdb.MaxKeyLen+1, err)
	}
	if err := s.Apply([]setdb.Write{{Key: longest, IDs: []uint64{5}, Dynamic: true}}); err != nil {
		t.Fatalf("a %d-byte key: %v", setdb.MaxKeyLen, err)
	}
	want := bundleBytes(t, s.DB())
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The log alone: both acknowledged writes replay, and nothing is torn.
	s, err = Open(dir, freshFunc(t, opts), Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if st := s.Stats(); st.ReplayedAtBoot != 2 || st.DroppedTailBytes != 0 {
		t.Fatalf("boot replayed %d records and dropped %d tail bytes, want 2 and 0", st.ReplayedAtBoot, st.DroppedTailBytes)
	}
	if got := bundleBytes(t, s.DB()); !bytes.Equal(got, want) {
		t.Fatal("the replayed database differs from the one closed")
	}
	if s.DB().Filter("b") != nil {
		t.Fatal("a write of the refused batch was stored")
	}

	// A snapshot, a write behind it, and a boot from both.
	if _, err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := s.Apply([]setdb.Write{{Key: "c", IDs: []uint64{6}}}); err != nil {
		t.Fatalf("Apply after the snapshot: %v", err)
	}
	want = bundleBytes(t, s.DB())
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s, err = Open(dir, freshFunc(t, opts), Options{})
	if err != nil {
		t.Fatalf("reopen after the snapshot: %v", err)
	}
	defer s.Close()
	if got := bundleBytes(t, s.DB()); !bytes.Equal(got, want) {
		t.Fatal("the database booted from the snapshot and its tail differs from the one closed")
	}
}

// TestDoubleReplayIdempotent duplicates a whole segment under the next
// index and verifies recovery applies its records exactly once — the
// sequence numbers, not the file layout, decide what is new.
func TestDoubleReplayIdempotent(t *testing.T) {
	opts := testOptions(t, membership.KindCounting)
	dir := t.TempDir()
	s, err := Open(dir, freshFunc(t, opts), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	batches := testBatches()
	for _, b := range batches {
		if err := s.Apply(b); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	want := bundleBytes(t, s.DB())
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	data, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(2)), data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	s2, err := Open(dir, freshFunc(t, opts), Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.ReplayedAtBoot != uint64(len(batches)) || st.SkippedAtBoot != uint64(len(batches)) {
		t.Fatalf("replayed=%d skipped=%d, want %d replayed and %d skipped",
			st.ReplayedAtBoot, st.SkippedAtBoot, len(batches), len(batches))
	}
	// Counting filters are not idempotent under double-apply, so byte
	// equality here proves each record landed exactly once.
	if got := bundleBytes(t, s2.DB()); !bytes.Equal(got, want) {
		t.Fatal("double replay changed the recovered state")
	}
}

func TestTornTailDroppedCleanly(t *testing.T) {
	cases := []struct {
		name string
		harm func(t *testing.T, path string)
	}{
		{"garbage-appended", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated-mid-record", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-3); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flipped-tail", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := testOptions(t, membership.KindCounting)
			dir := t.TempDir()
			s, err := Open(dir, freshFunc(t, opts), Options{})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			batches := testBatches()
			var wantIntact []byte
			for i, b := range batches {
				if err := s.Apply(b); err != nil {
					t.Fatalf("Apply: %v", err)
				}
				if i == len(batches)-2 {
					// State up to the second-to-last batch: what
					// truncation/bit-flip recovery must land on.
					wantIntact = bundleBytes(t, s.DB())
				}
			}
			wantAll := bundleBytes(t, s.DB())
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			tc.harm(t, filepath.Join(dir, segmentName(1)))

			s2, err := Open(dir, freshFunc(t, opts), Options{})
			if err != nil {
				t.Fatalf("reopen after %s: %v", tc.name, err)
			}
			st := s2.Stats()
			if st.DroppedTailBytes == 0 {
				t.Fatalf("DroppedTailBytes = 0 after %s", tc.name)
			}
			got := bundleBytes(t, s2.DB())
			want := wantAll
			if st.ReplayedAtBoot == uint64(len(batches)-1) {
				want = wantIntact
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("recovered state after %s matches neither full nor last-intact prefix", tc.name)
			}

			// The truncated tail must not poison later appends: write
			// more, close, recover again cleanly.
			if err := s2.Apply([]setdb.Write{{Key: "after", IDs: []uint64{1}}}); err != nil {
				t.Fatalf("Apply after torn-tail recovery: %v", err)
			}
			wantAfter := bundleBytes(t, s2.DB())
			if err := s2.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			s3, err := Open(dir, freshFunc(t, opts), Options{})
			if err != nil {
				t.Fatalf("third open: %v", err)
			}
			defer s3.Close()
			if st := s3.Stats(); st.DroppedTailBytes != 0 {
				t.Fatalf("DroppedTailBytes = %d on clean reopen, want 0", st.DroppedTailBytes)
			}
			if got := bundleBytes(t, s3.DB()); !bytes.Equal(got, wantAfter) {
				t.Fatal("state lost across append-after-recovery cycle")
			}
		})
	}
}

// TestBareSnapshotWithWAL: a file DB.Save wrote, dropped into a data
// directory under a snapshot's name with no meta sidecar beside it, is a
// valid WAL snapshot — pruned tree included — and recovery composes it with
// a hand-built WAL segment, replaying every record for want of a covered
// sequence.
func TestBareSnapshotWithWAL(t *testing.T) {
	seedDB, err := setdb.Open(testOptions(t, membership.KindCounting))
	if err != nil {
		t.Fatal(err)
	}
	if err := seedDB.Add("saved", 3); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := seedDB.Save(filepath.Join(dir, snapshotName(1))); err != nil {
		t.Fatalf("Save: %v", err)
	}
	seg := []byte(segMagic)
	seg = appendRecord(seg, 1, []setdb.Write{{Key: "old", IDs: []uint64{5, 17}}})
	seg = appendRecord(seg, 2, []setdb.Write{{Key: "dyn", IDs: []uint64{7}, Dynamic: true}})
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
		t.Fatalf("WriteFile segment: %v", err)
	}

	s, err := Open(dir, func() (*setdb.DB, error) {
		t.Fatal("fresh called with a snapshot present")
		return nil, nil
	}, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if st := s.Stats(); st.ReplayedAtBoot != 2 {
		t.Fatalf("ReplayedAtBoot = %d, want 2", st.ReplayedAtBoot)
	}
	db := s.DB()
	for key, id := range map[string]uint64{"saved": 3, "old": 5, "dyn": 7} {
		if ok, err := db.Contains(key, id); err != nil || !ok {
			t.Fatalf("Contains(%s, %d) = %v, %v after recovery over a Save file", key, id, ok, err)
		}
	}
}

// TestCorruptionInOlderSegmentRefused pins that damage anywhere but the
// final segment's tail aborts recovery instead of silently skipping
// history.
func TestCorruptionInOlderSegmentRefused(t *testing.T) {
	opts := testOptions(t, membership.KindCounting)
	dir := t.TempDir()
	s, err := Open(dir, freshFunc(t, opts), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, b := range testBatches() {
		if err := s.Apply(b); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Damage segment 1's tail, then fabricate a later segment so the
	// damage is no longer in the final one.
	seg1 := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg1, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(2)), []byte(segMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, freshFunc(t, opts), Options{}); err == nil {
		t.Fatal("Open recovered past corruption in a non-final segment")
	}
}

func TestSegmentRotationAndSnapshotPrune(t *testing.T) {
	opts := testOptions(t, membership.KindCounting)
	dir := t.TempDir()
	// Tiny segment budget: every batch rotates.
	s, err := Open(dir, freshFunc(t, opts), Options{SegmentBytes: 64})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, b := range testBatches() {
		if err := s.Apply(b); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	st := s.Stats()
	if st.Segments < 3 {
		t.Fatalf("Segments = %d with a 64-byte budget, want several", st.Segments)
	}
	info, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if info.SegmentsRemoved == 0 {
		t.Fatalf("SnapshotInfo.SegmentsRemoved = 0, want pruning; info=%+v", info)
	}
	if st := s.Stats(); st.Segments != 1 || st.RecordsSinceSnapshot != 0 {
		t.Fatalf("post-snapshot stats = %+v, want 1 segment and zero records since", st)
	}
	want := bundleBytes(t, s.DB())
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(dir, freshFunc(t, opts), Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if got := bundleBytes(t, s2.DB()); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs after rotation + snapshot + prune")
	}
}

// TestCrashBetweenSnapshotRenames boots the directory a crash leaves when a
// snapshot dies between its two renames: the previous snapshot, its
// segments of acknowledged records, the segment the snapshot rotated to
// (which acknowledged more), the new snapshot's meta renamed into place and
// its bundle half written under the temp name. The store boots from the
// previous snapshot, replays every record since it, answers every
// acknowledged write, and the next snapshot leaves no file below its index.
func TestCrashBetweenSnapshotRenames(t *testing.T) {
	opts := testOptions(t, membership.KindCounting)
	dir := t.TempDir()
	// Tiny segment budget: every batch rotates.
	s, err := Open(dir, freshFunc(t, opts), Options{SegmentBytes: 64})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	batches := testBatches()
	apply := func(bs [][]setdb.Write) {
		for _, b := range bs {
			if err := s.Apply(b); err != nil {
				t.Fatalf("Apply: %v", err)
			}
		}
	}
	apply(batches[:5])
	prev, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	apply(batches[5:12])

	// The crashing snapshot: it rotates, renames its meta into place and
	// dies writing its bundle, while acknowledged writes go on.
	s.mu.Lock()
	seq := s.seq
	if err := s.rotateLocked(); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	idx := s.activeIdx
	s.mu.Unlock()
	if err := os.WriteFile(filepath.Join(dir, metaName(idx)), []byte(fmt.Sprintf(`{"seq":%d}`, seq)), 0o644); err != nil {
		t.Fatal(err)
	}
	bundle := bundleBytes(t, s.DB())
	if err := os.WriteFile(filepath.Join(dir, snapshotName(idx)+".tmp"), bundle[:len(bundle)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	apply(batches[12:])
	want := bundleBytes(t, s.DB())
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir, freshFunc(t, opts), Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	since := uint64(len(batches) - 5)
	if st := s2.Stats(); st.LastSnapshotSeq != prev.Seq || st.ReplayedAtBoot != since || st.SkippedAtBoot != 0 {
		t.Fatalf("booted from the snapshot of seq %d, replaying %d and skipping %d; want seq %d and %d replayed",
			st.LastSnapshotSeq, st.ReplayedAtBoot, st.SkippedAtBoot, prev.Seq, since)
	}
	if got := bundleBytes(t, s2.DB()); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs from the acknowledged one")
	}
	type member struct {
		key string
		id  uint64
	}
	removed := map[member]bool{} // every id written, and whether a write removed it
	for _, w := range slices.Concat(batches...) {
		for _, id := range w.IDs {
			removed[member{w.Key, id}] = removed[member{w.Key, id}] || w.Remove
		}
	}
	for m, gone := range removed {
		if ok, err := s2.DB().Contains(m.key, m.id); !gone && !ok {
			t.Fatalf("acknowledged id %d of %q does not answer (%v)", m.id, m.key, err)
		}
	}

	next, err := s2.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	index := func(name string) uint64 { // wal-00000007.log, snap-00000007.meta.tmp: 7
		_, digits, _ := strings.Cut(name, "-")
		n, err := strconv.ParseUint(digits[:min(8, len(digits))], 10, 64)
		if err != nil {
			t.Fatalf("%s in the data directory: %v", name, err)
		}
		return n
	}
	for _, e := range entries {
		if index(e.Name()) < index(next.File) {
			t.Errorf("%s survived the snapshot %s", e.Name(), next.File)
		}
	}
}

func TestRestoreResetsHistory(t *testing.T) {
	opts := testOptions(t, membership.KindCounting)

	// Source database: some state, exported as a bundle.
	src, err := setdb.Open(opts)
	if err != nil {
		t.Fatalf("Open source: %v", err)
	}
	if err := src.Add("restored", 1, 2, 3); err != nil {
		t.Fatalf("Add: %v", err)
	}
	var bundle bytes.Buffer
	if _, err := src.SnapshotView().WriteBundleTo(&bundle); err != nil {
		t.Fatalf("WriteBundleTo: %v", err)
	}
	want := append([]byte(nil), bundle.Bytes()...)

	dir := t.TempDir()
	s, err := Open(dir, freshFunc(t, opts), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, b := range testBatches() {
		if err := s.Apply(b); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	db, err := setdb.ReadBundle(&bundle)
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	if err := s.RestoreDB(db); err != nil {
		t.Fatalf("RestoreDB: %v", err)
	}
	if got := bundleBytes(t, s.DB()); !bytes.Equal(got, want) {
		t.Fatal("live state after Restore differs from the bundle")
	}
	// Post-restore writes land in the new history.
	if err := s.Apply([]setdb.Write{{Key: "post", IDs: []uint64{9}}}); err != nil {
		t.Fatalf("Apply after Restore: %v", err)
	}
	wantAfter := bundleBytes(t, s.DB())
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir, func() (*setdb.DB, error) {
		t.Fatal("fresh called after Restore persisted a snapshot")
		return nil, nil
	}, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if got := bundleBytes(t, s2.DB()); !bytes.Equal(got, wantAfter) {
		t.Fatal("recovered state after Restore + Apply differs")
	}
	if ok, _ := s2.DB().Contains("plain-0", 0); ok {
		t.Fatal("pre-restore state leaked through recovery")
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
		ok   bool
	}{
		{"always", FsyncAlways, true},
		{"interval", FsyncInterval, true},
		{"never", FsyncNever, true},
		{"", FsyncAlways, true},
		{"sometimes", "", false},
	} {
		got, err := ParseFsyncPolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Fatalf("ParseFsyncPolicy(%q) = %q, %v", tc.in, got, err)
		}
	}
}

// FuzzWALDecode pins that the frame decoder never panics, never claims
// to consume more bytes than it was given, and that every frame it
// accepts re-encodes to the identical bytes.
func FuzzWALDecode(f *testing.F) {
	valid := appendRecord(nil, 3, []setdb.Write{
		{Key: "k", IDs: []uint64{1, 2, 3}},
		{Key: "d", IDs: []uint64{4}, Dynamic: true},
		{Key: "r", IDs: []uint64{5}, Dynamic: true, Remove: true},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-2]) // truncated tail
	crcFlipped := append([]byte(nil), valid...)
	crcFlipped[5] ^= 0xff
	f.Add(crcFlipped)
	lenLie := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(lenLie[0:4], 1<<30)
	f.Add(lenLie)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		seq, writes, consumed, err := decodeFrame(data)
		if err != nil {
			if consumed != 0 {
				t.Fatalf("consumed %d on error %v", consumed, err)
			}
			return
		}
		if consumed <= 0 || consumed > len(data) {
			t.Fatalf("consumed %d of %d", consumed, len(data))
		}
		if re := appendRecord(nil, seq, writes); !bytes.Equal(re, data[:consumed]) {
			t.Fatal("accepted frame does not re-encode to itself")
		}
	})
}
