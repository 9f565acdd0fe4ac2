package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/setdb"
)

// FsyncPolicy selects when appended records reach stable storage.
type FsyncPolicy string

const (
	// FsyncAlways syncs after every Apply: an acknowledged write is
	// durable, full stop. This is the policy the crash-injection tests
	// assert under, and the default.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval syncs on a timer (Options.FsyncInterval): a crash
	// loses at most one interval of acknowledged writes.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncNever leaves syncing to the OS page cache: fastest ingest,
	// and a machine crash may lose everything since the last snapshot or
	// rotation. A clean process exit (Close) still syncs.
	FsyncNever FsyncPolicy = "never"
)

// ParseFsyncPolicy parses a policy name as spelled in flags and stats.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncInterval, FsyncNever:
		return FsyncPolicy(s), nil
	case "":
		return FsyncAlways, nil
	}
	return "", fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

// Options configures a Store. The zero value gets safe defaults:
// fsync always, 64 MiB segments, no background snapshots.
type Options struct {
	// Fsync selects the durability/throughput trade-off (default
	// FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the timer period of FsyncInterval (default 100ms).
	FsyncInterval time.Duration
	// SegmentBytes rotates the active segment once it grows past this
	// (default 64 MiB). Rotation bounds both the recovery replay unit
	// and the disk a snapshot can reclaim.
	SegmentBytes int64
	// SnapshotInterval takes a background snapshot this often when new
	// records exist (default 0: snapshots only on demand).
	SnapshotInterval time.Duration
	// Logger, when set, receives structured log lines: recovery outcome
	// at info, a dropped torn tail at warn, fsync/rotation/snapshot
	// failures at error.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Fsync == "" {
		o.Fsync = FsyncAlways
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	return o
}

// ErrClosed is returned by operations on a closed Store.
var ErrClosed = errors.New("wal: store closed")

// Store owns a data directory: the live setdb.DB plus the segmented WAL
// and snapshot bundles that make it durable. All mutations must flow
// through Apply — a write applied straight to the DB would be invisible
// to recovery.
type Store struct {
	dir  string
	opts Options
	// fs makes every change to dir that a crash could half-keep: creates,
	// renames and removes. Only this package's tests pass another.
	fs durable.FS

	// db is swapped atomically by RestoreDB; readers (DB, the server's
	// request paths) never block on the store mutex.
	db atomic.Pointer[setdb.DB]

	// mu serializes Apply, rotation, snapshot bookkeeping and Close.
	// Holding it across the DB apply plus the log append is what makes
	// WAL order equal apply order — replay reproduces the exact live
	// sequence, which the crash tests compare byte-for-byte.
	mu          sync.Mutex
	seq         uint64
	active      durable.File
	activeIdx   uint64
	activeBytes int64
	oldestIdx   uint64
	walBytes    int64
	dirty       bool
	scratch     []byte
	closed      bool

	// snapMu serializes whole snapshot/restore cycles; it is never held
	// while mu is (always the outer lock), and Apply never takes it.
	snapMu sync.Mutex

	snapshots     uint64
	lastSnapUnix  int64
	lastSnapDur   time.Duration
	lastSnapBytes int64
	sinceRecords  uint64
	sinceBytes    int64

	// Boot-time recovery outcome, fixed after Open.
	bootReplayed    uint64
	bootSkipped     uint64
	bootDroppedTail int64

	// Durability health counters, atomics so Stats and /metrics read
	// them without contending on mu. fsyncErrors and snapshotErrors make
	// background failures visible: an interval-fsync error used to be a
	// single log line that scrolled away while the store kept
	// acknowledging writes it could no longer make durable.
	appendedBytes  atomic.Uint64
	fsyncs         atomic.Uint64
	fsyncErrors    atomic.Uint64
	rotations      atomic.Uint64
	snapshotErrors atomic.Uint64
	lastSnapSeq    atomic.Uint64

	// syncHook, when non-nil, replaces the active segment's Sync — tests
	// inject fsync failures through it to assert the error surfacing
	// above, and park a write inside its fsync (SetSyncHook).
	syncHook func() error

	stopc chan struct{}
	wg    sync.WaitGroup
}

// snapMeta is the JSON sidecar of one snapshot bundle.
type snapMeta struct {
	Seq uint64 `json:"seq"`
}

// SnapshotInfo describes one completed snapshot; it is the JSON body of
// POST /v1/snapshot.
type SnapshotInfo struct {
	File            string  `json:"file"`
	Bytes           int64   `json:"bytes"`
	DurationMS      float64 `json:"duration_ms"`
	Seq             uint64  `json:"seq"`
	SegmentsRemoved int     `json:"segments_removed"`
}

// Stats is the durability section of the stats document.
type Stats struct {
	FsyncPolicy          string  `json:"fsync_policy"`
	Segments             int     `json:"segments"`
	ActiveSegment        uint64  `json:"active_segment"`
	WALBytes             int64   `json:"wal_bytes"`
	Seq                  uint64  `json:"seq"`
	RecordsSinceSnapshot uint64  `json:"records_since_snapshot"`
	BytesSinceSnapshot   int64   `json:"bytes_since_snapshot"`
	Snapshots            uint64  `json:"snapshots"`
	LastSnapshotUnix     int64   `json:"last_snapshot_unix,omitempty"`
	LastSnapshotMS       float64 `json:"last_snapshot_ms,omitempty"`
	LastSnapshotBytes    int64   `json:"last_snapshot_bytes,omitempty"`
	LastSnapshotSeq      uint64  `json:"last_snapshot_seq"`
	AppendedBytes        uint64  `json:"appended_bytes"`
	Fsyncs               uint64  `json:"fsyncs"`
	FsyncErrors          uint64  `json:"fsync_errors"`
	Rotations            uint64  `json:"rotations"`
	SnapshotErrors       uint64  `json:"snapshot_errors"`
	ReplayedAtBoot       uint64  `json:"replayed_records_at_boot"`
	SkippedAtBoot        uint64  `json:"skipped_records_at_boot"`
	DroppedTailBytes     int64   `json:"dropped_tail_bytes_at_boot"`
}

func segmentName(idx uint64) string  { return fmt.Sprintf("wal-%08d.log", idx) }
func snapshotName(idx uint64) string { return fmt.Sprintf("snap-%08d.snap", idx) }
func metaName(idx uint64) string     { return fmt.Sprintf("snap-%08d.meta", idx) }

// Open recovers (or initializes) the data directory and returns a
// running Store. fresh builds the database a brand-new directory starts
// from — its options are immediately pinned by the initial snapshot, so
// every later boot reconstructs the exact same profile from disk alone.
func Open(dir string, fresh func() (*setdb.DB, error), opts Options) (*Store, error) {
	return open(dir, fresh, opts, durable.OS)
}

// open is Open making its changes to dir through fs.
func open(dir string, fresh func() (*setdb.DB, error), opts Options, fs durable.FS) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, fs: fs, stopc: make(chan struct{})}

	segs, snaps, err := s.scanDir()
	if err != nil {
		return nil, err
	}

	var db *setdb.DB
	var baseSeq uint64
	snapIdx := uint64(0)
	if len(snaps) > 0 {
		snapIdx = snaps[len(snaps)-1]
		db, baseSeq, err = s.loadSnapshot(snapIdx)
		if err != nil {
			return nil, fmt.Errorf("wal: loading %s: %w", snapshotName(snapIdx), err)
		}
	} else {
		db, err = fresh()
		if err != nil {
			return nil, err
		}
	}
	s.db.Store(db)
	s.seq = baseSeq
	s.lastSnapSeq.Store(baseSeq)

	// Replay every segment the newest snapshot does not cover, oldest
	// first. Records at or below the snapshot's seq are skipped — that
	// is what makes an accidental double replay (a segment the snapshot
	// already absorbed, a crash between snapshot and pruning) harmless.
	activeIdx := snapIdx
	if activeIdx == 0 {
		activeIdx = 1
	}
	tailOffset := int64(0)
	tailExists := false
	for _, idx := range segs {
		if idx < snapIdx {
			continue
		}
		last := idx == segs[len(segs)-1]
		goodOff, err := s.replaySegment(idx, last)
		if err != nil {
			return nil, err
		}
		if idx >= activeIdx {
			activeIdx = idx
			tailOffset = goodOff
			tailExists = true
		}
	}

	if !tailExists {
		// Brand-new directory (or snapshot with no tail): pin the
		// database profile on disk before the first record is written,
		// so recovery never depends on process flags.
		if len(snaps) == 0 {
			if _, err := s.writeSnapshotFiles(activeIdx, db.SnapshotView(), baseSeq); err != nil {
				return nil, err
			}
			s.snapshots++
		}
		if err := s.createSegment(activeIdx); err != nil {
			return nil, err
		}
	} else if err := s.openSegment(activeIdx, tailOffset); err != nil {
		return nil, err
	}
	s.activeIdx = activeIdx
	s.oldestIdx = activeIdx
	for _, idx := range segs {
		if idx >= snapIdx && idx < s.oldestIdx {
			s.oldestIdx = idx
		}
	}
	s.walBytes = s.sumSegmentBytes()

	// Stale files below the snapshot (a crash between snapshot and
	// prune) are reclaimed now, best-effort.
	s.prune(snapIdx)

	if opts.Logger != nil && (s.bootReplayed > 0 || s.bootDroppedTail > 0) {
		opts.Logger.Info("wal recovered", "dir", dir,
			"replayed", s.bootReplayed, "skipped", s.bootSkipped,
			"dropped_tail_bytes", s.bootDroppedTail)
	}

	if s.opts.Fsync == FsyncInterval || s.opts.SnapshotInterval > 0 {
		s.wg.Add(1)
		go s.background()
	}
	return s, nil
}

// DB returns the live database. After RestoreDB the pointer changes;
// callers holding the old value keep a consistent (stale) view.
func (s *Store) DB() *setdb.DB { return s.db.Load() }

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// Apply runs one group-commit batch through the database and, on
// success, appends it to the log (then syncs, under FsyncAlways) before
// returning. The whole cycle holds the store mutex, so the log's record
// order is exactly the apply order. A batch the database rejects logs
// nothing.
func (s *Store) Apply(writes []setdb.Write) error {
	if len(writes) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.db.Load().ApplyBatch(writes); err != nil {
		return err
	}
	s.seq++
	s.scratch = appendRecord(s.scratch[:0], s.seq, writes)
	n, err := s.active.Write(s.scratch)
	s.activeBytes += int64(n)
	s.walBytes += int64(n)
	s.sinceBytes += int64(n)
	s.appendedBytes.Add(uint64(n))
	if err != nil {
		// The state is applied but the log write failed (disk full, IO
		// error): the write is live but will not survive a restart.
		// There is nothing to roll back; surface it loudly.
		return fmt.Errorf("wal: append failed, write applied but not durable: %w", err)
	}
	s.sinceRecords++
	if s.opts.Fsync == FsyncAlways {
		if err := s.syncActive(); err != nil {
			return fmt.Errorf("wal: fsync failed, write applied but not durable: %w", err)
		}
	} else {
		s.dirty = true
	}
	if s.activeBytes >= s.opts.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot persists the current database as a bundle and prunes every
// log segment it covers. Writers are paused only for the view pin and
// segment rotation; the bundle bytes are produced concurrently with new
// Applies landing in the fresh segment.
func (s *Store) Snapshot() (SnapshotInfo, error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()

	start := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return SnapshotInfo{}, ErrClosed
	}
	view := s.db.Load().SnapshotView()
	seq := s.seq
	if err := s.rotateLocked(); err != nil {
		s.mu.Unlock()
		s.snapshotErrors.Add(1)
		s.logError("wal snapshot failed", "stage", "rotate", "error", err)
		return SnapshotInfo{}, err
	}
	idx := s.activeIdx
	s.mu.Unlock()

	bytes, err := s.writeSnapshotFiles(idx, view, seq)
	if err != nil {
		s.snapshotErrors.Add(1)
		s.logError("wal snapshot failed", "stage", "write", "file", snapshotName(idx), "error", err)
		return SnapshotInfo{}, err
	}
	removed := s.prune(idx)
	dur := time.Since(start)

	s.mu.Lock()
	s.snapshots++
	s.lastSnapUnix = time.Now().Unix()
	s.lastSnapDur = dur
	s.lastSnapBytes = bytes
	s.lastSnapSeq.Store(seq)
	s.sinceRecords = 0
	s.sinceBytes = 0
	s.oldestIdx = idx
	s.walBytes = s.sumSegmentBytes()
	s.mu.Unlock()

	return SnapshotInfo{
		File:            snapshotName(idx),
		Bytes:           bytes,
		DurationMS:      float64(dur.Microseconds()) / 1000,
		Seq:             seq,
		SegmentsRemoved: removed,
	}, nil
}

// RestoreDB replaces the live database with db (typically a bundle read
// by setdb.ReadBundle): the new state is persisted as a snapshot, the log
// restarts empty, and the old history is pruned. Writes are blocked for
// the (rare) duration.
func (s *Store) RestoreDB(db *setdb.DB) error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	idx := s.activeIdx + 1
	if _, err := s.writeSnapshotFiles(idx, db.SnapshotView(), 0); err != nil {
		return err
	}
	syncErr := s.syncActive()
	_ = syncErr // superseded history; best-effort
	s.active.Close()
	if err := s.createSegment(idx); err != nil {
		return fmt.Errorf("wal: restore wrote %s but the fresh segment failed: %w", snapshotName(idx), err)
	}
	s.activeIdx = idx
	s.oldestIdx = idx
	s.seq = 0
	s.db.Store(db)
	s.snapshots++
	s.lastSnapUnix = time.Now().Unix()
	s.lastSnapSeq.Store(0)
	s.sinceRecords = 0
	s.sinceBytes = 0
	s.prune(idx)
	s.walBytes = s.sumSegmentBytes()
	return nil
}

// Stats reports the durability health counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	segments := 0
	if s.activeIdx >= s.oldestIdx {
		segments = int(s.activeIdx - s.oldestIdx + 1)
	}
	return Stats{
		FsyncPolicy:          string(s.opts.Fsync),
		Segments:             segments,
		ActiveSegment:        s.activeIdx,
		WALBytes:             s.walBytes,
		Seq:                  s.seq,
		RecordsSinceSnapshot: s.sinceRecords,
		BytesSinceSnapshot:   s.sinceBytes,
		Snapshots:            s.snapshots,
		LastSnapshotUnix:     s.lastSnapUnix,
		LastSnapshotMS:       float64(s.lastSnapDur.Microseconds()) / 1000,
		LastSnapshotBytes:    s.lastSnapBytes,
		LastSnapshotSeq:      s.lastSnapSeq.Load(),
		AppendedBytes:        s.appendedBytes.Load(),
		Fsyncs:               s.fsyncs.Load(),
		FsyncErrors:          s.fsyncErrors.Load(),
		Rotations:            s.rotations.Load(),
		SnapshotErrors:       s.snapshotErrors.Load(),
		ReplayedAtBoot:       s.bootReplayed,
		SkippedAtBoot:        s.bootSkipped,
		DroppedTailBytes:     s.bootDroppedTail,
	}
}

// Close stops the background work and syncs and closes the active
// segment. The Store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stopc)
	s.mu.Unlock()
	s.wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.active != nil {
		err = s.syncActive()
		if cerr := s.active.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// background runs the interval-fsync and periodic-snapshot timers.
func (s *Store) background() {
	defer s.wg.Done()
	fsyncC := make(<-chan time.Time)
	if s.opts.Fsync == FsyncInterval {
		t := time.NewTicker(s.opts.FsyncInterval)
		defer t.Stop()
		fsyncC = t.C
	}
	snapC := make(<-chan time.Time)
	if s.opts.SnapshotInterval > 0 {
		t := time.NewTicker(s.opts.SnapshotInterval)
		defer t.Stop()
		snapC = t.C
	}
	for {
		select {
		case <-s.stopc:
			return
		case <-fsyncC:
			s.mu.Lock()
			if !s.closed && s.dirty {
				s.dirty = false
				if err := s.syncActive(); err != nil {
					// The error is already counted and logged by
					// syncActive; mark the segment dirty again so the
					// next tick retries rather than silently dropping
					// the pending records' durability.
					s.dirty = true
				}
			}
			s.mu.Unlock()
		case <-snapC:
			s.mu.Lock()
			pending := s.sinceRecords
			s.mu.Unlock()
			if pending == 0 {
				continue
			}
			// Snapshot counts and logs its own failure.
			_, _ = s.Snapshot()
		}
	}
}

// logError emits one structured error line when a Logger is configured.
func (s *Store) logError(msg string, args ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Error(msg, args...)
	}
}

// scanDir lists the segment and snapshot indices present, ascending.
func (s *Store) scanDir() (segs, snaps []uint64, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		var idx uint64
		switch {
		case matchIndexed(e.Name(), "wal-", ".log", &idx):
			segs = append(segs, idx)
		case matchIndexed(e.Name(), "snap-", ".snap", &idx):
			snaps = append(snaps, idx)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return segs, snaps, nil
}

// matchIndexed parses names like wal-00000007.log.
func matchIndexed(name, prefix, suffix string, idx *uint64) bool {
	if len(name) != len(prefix)+8+len(suffix) {
		return false
	}
	if name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return false
	}
	v := uint64(0)
	for _, c := range name[len(prefix) : len(name)-len(suffix)] {
		if c < '0' || c > '9' {
			return false
		}
		v = v*10 + uint64(c-'0')
	}
	if v == 0 {
		return false
	}
	*idx = v
	return true
}

// loadSnapshot reads one snapshot bundle plus its meta sidecar.
func (s *Store) loadSnapshot(idx uint64) (*setdb.DB, uint64, error) {
	f, err := os.Open(filepath.Join(s.dir, snapshotName(idx)))
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	db, err := setdb.ReadBundle(f)
	if err != nil {
		return nil, 0, err
	}
	seq := uint64(0)
	if data, err := os.ReadFile(filepath.Join(s.dir, metaName(idx))); err == nil {
		var m snapMeta
		if err := json.Unmarshal(data, &m); err == nil {
			seq = m.Seq
		}
	}
	// A missing or unreadable meta degrades to seq 0. That re-applies no
	// record: the bundle holds exactly the segments below idx, which replay
	// skips by index. Only the seq the boot reports is lost.
	return db, seq, nil
}

// replaySegment applies one segment's records beyond the running max
// sequence (which starts at the snapshot's covered seq) — so a record
// the snapshot absorbed, or a whole duplicated segment, is skipped
// rather than applied twice. last marks the final segment on disk —
// only its tail may be torn; damage anywhere else is refused. It
// returns the file offset just past the last intact record.
func (s *Store) replaySegment(idx uint64, last bool) (int64, error) {
	path := filepath.Join(s.dir, segmentName(idx))
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		if last && len(data) < len(segMagic) {
			// The crash interrupted segment creation itself; the whole
			// file is a torn tail.
			s.bootDroppedTail += int64(len(data))
			return 0, nil
		}
		return 0, fmt.Errorf("%w: %s has a bad segment magic", ErrCorrupt, path)
	}
	db := s.db.Load()
	var applyErr error
	goodOff, scanErr := segScan(data[len(segMagic):], func(seq uint64, writes []setdb.Write) error {
		if seq <= s.seq {
			s.bootSkipped++
			return nil
		}
		if err := db.ApplyBatch(writes); err != nil {
			return fmt.Errorf("wal: replaying %s seq %d: %w", path, seq, err)
		}
		s.bootReplayed++
		s.seq = seq
		return nil
	})
	switch {
	case scanErr == nil:
	case errors.Is(scanErr, errShortRecord), errors.Is(scanErr, ErrCorrupt):
		dropped := int64(len(data)) - int64(len(segMagic)) - int64(goodOff)
		if !last {
			return 0, fmt.Errorf("wal: %s is damaged %d bytes before its end but is not the final segment: refusing to recover past missing history (%v)", path, dropped, scanErr)
		}
		s.bootDroppedTail += dropped
		if s.opts.Logger != nil {
			s.opts.Logger.Warn("wal dropped torn tail", "segment", path,
				"dropped_bytes", dropped, "error", scanErr)
		}
	default:
		applyErr = scanErr
	}
	if applyErr != nil {
		return 0, applyErr
	}
	return int64(len(segMagic)) + int64(goodOff), nil
}

// createSegment creates a fresh active segment with its magic, synced,
// and syncs the directory, so the file and its name survive a crash that
// follows: a record appended to it is acknowledged only after both.
func (s *Store) createSegment(idx uint64) error {
	f, err := s.fs.Create(filepath.Join(s.dir, segmentName(idx)))
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	s.fs.SyncDir(s.dir)
	s.active = f
	s.activeBytes = int64(len(segMagic))
	return nil
}

// openSegment reopens a recovered segment for appending, truncated to
// its last intact record so a dropped torn tail can never sit between
// old and new records.
func (s *Store) openSegment(idx uint64, goodOffset int64) error {
	f, err := os.OpenFile(filepath.Join(s.dir, segmentName(idx)), os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if goodOffset < int64(len(segMagic)) {
		// The magic itself was torn; rewrite the segment from scratch.
		f.Close()
		return s.createSegment(idx)
	}
	if err := f.Truncate(goodOffset); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(goodOffset, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	// A killed process can leave names no directory sync covered yet;
	// this boot's writes depend on them.
	s.fs.SyncDir(s.dir)
	s.active = f
	s.activeBytes = goodOffset
	return nil
}

// rotateLocked closes the active segment (synced) and starts the next.
// Callers hold mu.
func (s *Store) rotateLocked() error {
	if err := s.syncActive(); err != nil {
		return err
	}
	if err := s.active.Close(); err != nil {
		return err
	}
	s.dirty = false
	if err := s.createSegment(s.activeIdx + 1); err != nil {
		return err
	}
	s.activeIdx++
	s.rotations.Add(1)
	s.walBytes += int64(len(segMagic))
	return nil
}

// SetSyncHook makes hook stand in for the active segment's Sync from the
// next fsync on; nil restores the real one. It is the fault-injection seam
// of tests outside this package: an fsync that fails, or one that lasts as
// long as the test holds it (the write it belongs to stays unacknowledged,
// and holds mu, until hook returns).
func (s *Store) SetSyncHook(hook func() error) {
	s.mu.Lock()
	s.syncHook = hook
	s.mu.Unlock()
}

// syncActive fsyncs the active segment (or runs the test hook) and
// keeps the fsync counters. Callers hold mu.
func (s *Store) syncActive() error {
	var err error
	if s.syncHook != nil {
		err = s.syncHook()
	} else {
		err = s.active.Sync()
	}
	if err != nil {
		s.fsyncErrors.Add(1)
		s.logError("wal fsync failed", "segment", segmentName(s.activeIdx), "error", err)
		return err
	}
	s.fsyncs.Add(1)
	return nil
}

// writeSnapshotFiles persists one meta + bundle pair, each by
// durable.WriteFile, meta first: the bundle's rename is the commit point
// (recovery keys on the .snap file), and the meta's rename is durable
// before it, so a .snap never appears without the seq it covers.
func (s *Store) writeSnapshotFiles(idx uint64, view *setdb.SnapshotView, seq uint64) (int64, error) {
	meta, err := json.Marshal(snapMeta{Seq: seq})
	if err != nil {
		return 0, err
	}
	if _, err := durable.WriteFile(s.fs, filepath.Join(s.dir, metaName(idx)), bytes.NewReader(meta).WriteTo); err != nil {
		return 0, err
	}
	return durable.WriteFile(s.fs, filepath.Join(s.dir, snapshotName(idx)), view.WriteBundleTo)
}

// prune removes segments and snapshots below keepIdx, best-effort (a
// leftover file is reclaimed by the next prune). A snapshot's files include
// what a crash leaves of one: a .meta without its .snap, and either one's
// .tmp. None below keepIdx is being written: snapMu serialises snapshots
// and restores, and a write in flight is at keepIdx or above. It returns the
// number of segments removed.
func (s *Store) prune(keepIdx uint64) int {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	removed := 0
	for _, e := range entries {
		name := e.Name()
		var idx uint64
		switch {
		case matchIndexed(name, "wal-", ".log", &idx):
			if idx < keepIdx && s.fs.Remove(filepath.Join(s.dir, name)) == nil {
				removed++
			}
		case matchIndexed(name, "snap-", ".snap", &idx), matchIndexed(name, "snap-", ".meta", &idx),
			matchIndexed(name, "snap-", ".snap.tmp", &idx), matchIndexed(name, "snap-", ".meta.tmp", &idx):
			if idx < keepIdx {
				s.fs.Remove(filepath.Join(s.dir, name))
			}
		}
	}
	return removed
}

// sumSegmentBytes totals the on-disk segment sizes.
func (s *Store) sumSegmentBytes() int64 {
	segs, _, err := s.scanDir()
	if err != nil {
		return 0
	}
	total := int64(0)
	for _, idx := range segs {
		if fi, err := os.Stat(filepath.Join(s.dir, segmentName(idx))); err == nil {
			total += fi.Size()
		}
	}
	return total
}
