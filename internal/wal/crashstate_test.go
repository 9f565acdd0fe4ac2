package wal

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/membership"
	"repro/internal/setdb"
)

// The crash states of one scenario, in the style of ALICE (Pillai et al.,
// "All File Systems Are Not Created Equal", OSDI 2014): a recorder logs
// every change the store makes to its directory, and every state a crash
// could leave is built from that log and booted. The file system promised
// here is POSIX's: a file's bytes are durable up to its last fsync, a
// create, rename or remove only once a later fsync of its directory covers
// it, and nothing orders the uncovered ones.

type opKind uint8

const (
	opCreate opKind = iota
	opWrite
	opSync
	opRename
	opRemove
	opSyncDir
	opBegin // the scenario starts an event: an Apply or a RestoreDB
	opAck   // the event returned
)

// fsOp is one logged operation. Files are inodes: a rename moves the inode,
// and a create under a name that is there makes a new one.
type fsOp struct {
	kind     opKind
	ino      int
	name, to string // rename: name → to; the others: the file's name
	data     []byte // write
}

func (op fsOp) String() string {
	s := [...]string{"create", "write", "sync", "rename", "remove", "syncdir", "begin", "ack"}[op.kind]
	if op.name != "" {
		s += " " + op.name
	}
	if op.to != "" {
		s += " → " + op.to
	}
	if op.kind == opWrite {
		s += fmt.Sprintf(" (%d B)", len(op.data))
	}
	return s
}

// recorder is a durable.FS over the real directory that logs what it does.
// A file's Sync is only logged: the crash states are built from the log.
type recorder struct {
	ops  []fsOp
	inos map[string]int // name → inode as the running process sees it
	next int
}

type recFile struct {
	durable.File
	r    *recorder
	ino  int
	name string
}

func (r *recorder) log(op fsOp) { r.ops = append(r.ops, op) }

func (r *recorder) Create(path string) (durable.File, error) {
	f, err := durable.OS.Create(path)
	if err != nil {
		return nil, err
	}
	r.next++
	name := filepath.Base(path)
	r.inos[name] = r.next
	r.log(fsOp{kind: opCreate, ino: r.next, name: name})
	return &recFile{File: f, r: r, ino: r.next, name: name}, nil
}

func (r *recorder) Rename(oldpath, newpath string) error {
	if err := durable.OS.Rename(oldpath, newpath); err != nil {
		return err
	}
	from, to := filepath.Base(oldpath), filepath.Base(newpath)
	ino := r.inos[from]
	delete(r.inos, from)
	r.inos[to] = ino
	r.log(fsOp{kind: opRename, ino: ino, name: from, to: to})
	return nil
}

func (r *recorder) Remove(path string) error {
	if err := durable.OS.Remove(path); err != nil {
		return err
	}
	name := filepath.Base(path)
	r.log(fsOp{kind: opRemove, ino: r.inos[name], name: name})
	delete(r.inos, name)
	return nil
}

func (r *recorder) SyncDir(string) { r.log(fsOp{kind: opSyncDir}) }

func (f *recFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.r.log(fsOp{kind: opWrite, ino: f.ino, name: f.name, data: slices.Clone(p[:n])})
	return n, err
}

func (f *recFile) Sync() error {
	f.r.log(fsOp{kind: opSync, ino: f.ino, name: f.name})
	return nil
}

// applyDirOp applies one create, rename or remove to a name → inode map.
func applyDirOp(names map[string]int, op fsOp) {
	switch op.kind {
	case opCreate:
		names[op.name] = op.ino
	case opRename:
		if names[op.name] == op.ino {
			delete(names, op.name)
		}
		names[op.to] = op.ino
	case opRemove:
		if names[op.name] == op.ino {
			delete(names, op.name)
		}
	}
}

// crashStates calls visit with every directory a crash right after ops may
// leave: each subset of the creates, renames and removes no SyncDir
// covered, and each file's bytes up to its last Sync, all of them, or all
// of them with the final write torn in half.
func crashStates(ops []fsOp, visit func(files map[string][]byte)) {
	type inode struct {
		data         []byte
		synced, last int
	}
	inodes := map[int]*inode{}
	covered := map[string]int{}
	var pending []fsOp
	for _, op := range ops {
		switch op.kind {
		case opCreate:
			inodes[op.ino] = &inode{}
			pending = append(pending, op)
		case opRename, opRemove:
			pending = append(pending, op)
		case opWrite:
			in := inodes[op.ino]
			in.data = append(in.data, op.data...)
			in.last = len(op.data)
		case opSync:
			in := inodes[op.ino]
			in.synced = len(in.data)
		case opSyncDir:
			for _, p := range pending {
				applyDirOp(covered, p)
			}
			pending = nil
		}
	}
	for mask := 0; mask < 1<<len(pending); mask++ {
		names := maps.Clone(covered)
		for i, p := range pending {
			if mask&(1<<i) != 0 {
				applyDirOp(names, p)
			}
		}
		order := slices.Sorted(maps.Keys(names))
		lengths := make([][]int, len(order))
		for i, name := range order {
			in := inodes[names[name]]
			lengths[i] = []int{in.synced}
			if n := len(in.data); n > in.synced {
				lengths[i] = append(lengths[i], n)
				if torn := n - (in.last+1)/2; torn > in.synced {
					lengths[i] = append(lengths[i], torn)
				}
			}
		}
		choice := make([]int, len(order))
		for {
			files := make(map[string][]byte, len(order))
			for i, name := range order {
				files[name] = inodes[names[name]].data[:lengths[i][choice[i]]]
			}
			visit(files)
			i := 0
			for ; i < len(choice); i++ {
				if choice[i]++; choice[i] < len(lengths[i]) {
					break
				}
				choice[i] = 0
			}
			if i == len(choice) {
				break
			}
		}
	}
}

// shadow is the database after one prefix of the scenario's events.
type shadow struct {
	bundle []byte
	seq    uint64
}

// booted is what a boot of one crash state recovered.
type booted struct {
	bundle           []byte
	seq, lastSnapSeq uint64
	err              error
}

// TestEveryCrashState runs one FsyncAlways scenario through a recorder —
// boot a fresh directory, append across rotations, snapshot (which prunes),
// append, restore, append again — and boots every state a crash could leave
// at every point of it. Each boot must hold the database after some prefix
// of the events that includes every acknowledged one, its Seq must be that
// prefix's, and its LastSnapshotSeq the seq of the snapshot it booted from.
func TestEveryCrashState(t *testing.T) {
	opts := testOptions(t, membership.KindCounting)
	rec := &recorder{inos: map[string]int{}}
	// One byte per segment: every Apply rotates.
	s, err := open(t.TempDir(), freshFunc(t, opts), Options{Fsync: FsyncAlways, SegmentBytes: 1}, rec)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	history := []shadow{{bundleBytes(t, s.DB()), 0}}
	snapSeq := map[uint64]uint64{1: 0} // snapshot index → the seq it covers
	event := func(name string, run func() error) {
		t.Helper()
		rec.log(fsOp{kind: opBegin})
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rec.log(fsOp{kind: opAck})
		history = append(history, shadow{bundleBytes(t, s.DB()), s.Stats().Seq})
	}
	batches := testBatches()
	apply := func(b []setdb.Write) { event("Apply", func() error { return s.Apply(b) }) }

	apply(batches[0])
	apply(batches[1])
	info, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	var idx uint64
	if !matchIndexed(info.File, "snap-", ".snap", &idx) || info.Seq != 2 || info.SegmentsRemoved < 2 {
		t.Fatalf("Snapshot = %+v: want a snap-*.snap covering seq 2 that pruned ≥ 2 segments", info)
	}
	snapSeq[idx] = info.Seq
	// A counting remove beside an add: either applied twice leaves counters
	// no acknowledged history wrote.
	apply([]setdb.Write{
		{Key: "dyn-0", IDs: []uint64{200}, Dynamic: true, Remove: true},
		{Key: "dyn-1", IDs: []uint64{201}, Dynamic: true},
	})
	src, err := setdb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.AddDynamic("restored", 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	restored, err := setdb.ReadBundle(bytes.NewReader(bundleBytes(t, src)))
	if err != nil {
		t.Fatal(err)
	}
	snapSeq[s.activeIdx+1] = 0
	event("RestoreDB", func() error { return s.RestoreDB(restored) })
	apply(batches[3])
	apply(batches[4])
	if st := s.Stats(); st.Rotations < 4 {
		t.Fatalf("the scenario rotated %d times", st.Rotations)
	}

	boots := map[[32]byte]booted{}
	bootDir := t.TempDir()
	boot := func(files map[string][]byte) booted {
		h := sha256.New()
		for _, name := range slices.Sorted(maps.Keys(files)) {
			fmt.Fprintf(h, "%s\x00%d\x00", name, len(files[name]))
			h.Write(files[name])
		}
		key := [32]byte(h.Sum(nil))
		if b, ok := boots[key]; ok {
			return b
		}
		dir := filepath.Join(bootDir, fmt.Sprint(len(boots)))
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var b booted
		bs, err := Open(dir, freshFunc(t, opts), Options{})
		if b.err = err; err == nil {
			st := bs.Stats()
			b.bundle, b.seq, b.lastSnapSeq = bundleBytes(t, bs.DB()), st.Seq, st.LastSnapshotSeq
			b.err = bs.Close()
		}
		os.RemoveAll(dir)
		boots[key] = b
		return b
	}

	states, failures := 0, 0
	for p := 0; p <= len(rec.ops); p++ {
		acked, started := 0, 0
		for _, op := range rec.ops[:p] {
			switch op.kind {
			case opBegin:
				started++
			case opAck:
				acked++
			}
		}
		crashStates(rec.ops[:p], func(files map[string][]byte) {
			states++
			b := boot(files)
			newest := uint64(0)
			for name := range files {
				var idx uint64
				if matchIndexed(name, "snap-", ".snap", &idx) {
					newest = max(newest, idx)
				}
			}
			held := false
			for j := acked; j <= started && !held; j++ {
				held = bytes.Equal(b.bundle, history[j].bundle) && b.seq == history[j].seq
			}
			if held && b.err == nil && b.lastSnapSeq == snapSeq[newest] {
				return
			}
			if failures++; failures <= 5 {
				last := "nothing"
				if p > 0 {
					last = rec.ops[p-1].String()
				}
				t.Errorf("crash after op %d (%s), files %s: booted seq %d from a snapshot of seq %d (err %v); want the state and seq after %d to %d events, from the snapshot of seq %d",
					p, last, strings.Join(slices.Sorted(maps.Keys(files)), " "),
					b.seq, b.lastSnapSeq, b.err, acked, started, snapSeq[newest])
			}
		})
	}
	if failures > 0 {
		t.Fatalf("%d of %d crash states (%d distinct) booted wrong", failures, states, len(boots))
	}
	t.Logf("%d operations, %d crash states, %d distinct boots", len(rec.ops), states, len(boots))
}
