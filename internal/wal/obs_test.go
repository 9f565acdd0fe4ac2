package wal

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/membership"
	"repro/internal/setdb"
)

// TestFsyncFailureSurfaced injects fsync failures through syncHook and
// asserts the full surfacing chain: Apply returns the error, the
// fsync_errors counter moves, and a structured error line lands on the
// configured Logger — the background-syncer failure mode that used to
// be one printf line.
func TestFsyncFailureSurfaced(t *testing.T) {
	dir := t.TempDir()
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	opts := testOptions(t, membership.KindBloom)
	s, err := Open(dir, freshFunc(t, opts), Options{Fsync: FsyncAlways, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Healthy first: one durable write, counters moving the good way.
	if err := s.Apply([]setdb.Write{{Key: "a", IDs: []uint64{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	base := s.Stats()
	if base.Fsyncs == 0 || base.FsyncErrors != 0 || base.AppendedBytes == 0 {
		t.Fatalf("healthy counters off: %+v", base)
	}

	injected := errors.New("injected: device gone")
	s.syncHook = func() error { return injected }
	err = s.Apply([]setdb.Write{{Key: "a", IDs: []uint64{3}}})
	if err == nil || !errors.Is(err, injected) {
		t.Fatalf("Apply under failing fsync returned %v, want wrapped injection", err)
	}
	if !strings.Contains(err.Error(), "not durable") {
		t.Errorf("error should say the write is applied but not durable: %v", err)
	}
	st := s.Stats()
	if st.FsyncErrors != 1 {
		t.Errorf("fsync_errors = %d, want 1", st.FsyncErrors)
	}
	if !strings.Contains(logBuf.String(), "wal fsync failed") ||
		!strings.Contains(logBuf.String(), "device gone") {
		t.Errorf("no structured error line logged:\n%s", logBuf.String())
	}

	// Recovery: hook removed, writes are durable again and the error
	// counter stays where it was.
	s.syncHook = nil
	if err := s.Apply([]setdb.Write{{Key: "a", IDs: []uint64{4}}}); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.FsyncErrors != 1 || after.Fsyncs <= st.Fsyncs {
		t.Errorf("post-recovery counters off: %+v", after)
	}
}

// TestSnapshotErrorCounted makes snapshotting fail (fsync of the
// rotation) and checks the snapshot_errors counter plus the log line.
func TestSnapshotErrorCounted(t *testing.T) {
	dir := t.TempDir()
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	opts := testOptions(t, membership.KindBloom)
	s, err := Open(dir, freshFunc(t, opts), Options{Fsync: FsyncNever, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Apply([]setdb.Write{{Key: "k", IDs: []uint64{9}}}); err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected: snapshot rotate fsync")
	s.syncHook = func() error { return injected }
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("Snapshot with failing fsync should error")
	}
	if st := s.Stats(); st.SnapshotErrors != 1 {
		t.Errorf("snapshot_errors = %d, want 1", st.SnapshotErrors)
	}
	if !strings.Contains(logBuf.String(), "wal snapshot failed") {
		t.Errorf("no structured snapshot-failure line:\n%s", logBuf.String())
	}
	s.syncHook = nil
	if _, err := s.Snapshot(); err != nil {
		t.Fatalf("snapshot after recovery: %v", err)
	}
	st := s.Stats()
	if st.Snapshots == 0 || st.LastSnapshotSeq != 1 {
		t.Errorf("recovered snapshot stats off: %+v", st)
	}
}

// TestRotationAndAppendCounters drives enough bytes to rotate segments
// and checks the new Stats fields move coherently.
func TestRotationAndAppendCounters(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, membership.KindBloom)
	s, err := Open(dir, freshFunc(t, opts), Options{Fsync: FsyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := uint64(0); i < 20; i++ {
		if err := s.Apply([]setdb.Write{{Key: "k", IDs: []uint64{i, i + 100, i + 200}}}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Rotations == 0 {
		t.Errorf("no rotations after %d bytes appended over a 256-byte segment cap", st.AppendedBytes)
	}
	if st.AppendedBytes == 0 {
		t.Error("appended_bytes never moved")
	}
	if int(st.Rotations) != st.Segments-1 {
		t.Errorf("rotations %d vs segments %d: want segments-1 rotations", st.Rotations, st.Segments)
	}
}

// recordingHandler keeps every record logged through it.
type recordingHandler struct {
	mu      sync.Mutex
	records []slog.Record
}

func (h *recordingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *recordingHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *recordingHandler) WithGroup(string) slog.Handler            { return h }

func (h *recordingHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.records = append(h.records, r.Clone())
	return nil
}

// TestTornTailIsLogged recovers over a segment with garbage after its last
// record and checks that the Logger gets one warn line naming the segment,
// the bytes dropped and the decode error.
func TestTornTailIsLogged(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, membership.KindCounting)
	s, err := Open(dir, freshFunc(t, opts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range testBatches() {
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segment := filepath.Join(dir, segmentName(1))
	f, err := os.OpenFile(segment, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	h := &recordingHandler{}
	s2, err := Open(dir, freshFunc(t, opts), Options{Logger: slog.New(h)})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().DroppedTailBytes; got != 5 {
		t.Fatalf("DroppedTailBytes = %d, want 5", got)
	}
	var warned int
	for _, r := range h.records {
		if r.Message != "wal dropped torn tail" {
			continue
		}
		warned++
		attrs := map[string]slog.Value{}
		r.Attrs(func(a slog.Attr) bool {
			attrs[a.Key] = a.Value
			return true
		})
		if r.Level != slog.LevelWarn || attrs["segment"].String() != segment ||
			attrs["dropped_bytes"].Int64() != 5 || attrs["error"].Any() == nil {
			t.Errorf("torn-tail line: level %v, attrs %v", r.Level, attrs)
		}
	}
	if warned != 1 {
		t.Fatalf("%d torn-tail lines logged, want 1; records: %v", warned, h.records)
	}
}
