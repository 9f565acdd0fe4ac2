package setdb

// Durability primitives: a version-pinned SnapshotView over the shard
// states, and the self-delimiting "bundle" container the durability
// layer (internal/wal) and the snapshot/restore API ship around.
//
// A plain SETDB2 file is not enough to restart a pruned database — the
// tree occupancy lives outside the filters — so the bundle carries the
// database followed by its serialized BloomSampleTree:
//
//	magic  [7]byte "BSTBND1"
//	db     SETDB2 stream (WriteTo; self-delimiting)
//	tree   uint8 presence flag; when 1, a core.Tree stream ("BST1")
//
// Non-pruned databases rebuild their full tree deterministically from
// the header options, so they carry presence 0. ReadBundle also accepts
// a bare SETDB2 stream (non-pruned only), so a file written by Save
// restores directly.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/membership"
)

const bundleMagic = "BSTBND1"

// SnapshotView is a cross-shard-consistent, immutable view of the
// database's sets, pinned at construction. Serializing it never blocks
// writers or readers: the pinned shard states are copy-on-write
// snapshots, and on a pruned database the shared tree is monotone — it
// only ever grows — so any tree state serialized at or after the pin
// covers every id reachable through the pinned filters.
type SnapshotView struct {
	db     *DB
	states [numShards]*shardState
}

// SnapshotView pins a consistent view of the current sets. The pin
// itself briefly holds every shard's writer mutex (pointer loads only);
// everything after — including WriteTo — runs lock-free.
func (db *DB) SnapshotView() *SnapshotView {
	return &SnapshotView{db: db, states: db.snapshotAll()}
}

// WriteTo serializes the pinned view in the SETDB2 format. It implements
// io.WriterTo.
func (v *SnapshotView) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	if _, err := bw.WriteString(dbMagic); err != nil {
		return cw.n, err
	}
	if err := v.writeHeader(bw); err != nil {
		return cw.n, err
	}

	plain, dynamic := v.keys()
	for _, keys := range [][]string{plain, dynamic} {
		err := writeSection(bw, keys, func(k string) membership.Membership {
			h := keyHash(k)
			e, _ := v.states[h%numShards].sets.get(h, k)
			return e.m
		})
		if err != nil {
			return cw.n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// keys returns the pinned keys, each list sorted, split by capability into
// the format's two sections: the keys whose values cannot remove ids, then
// those whose values can.
func (v *SnapshotView) keys() (plain, dynamic []string) {
	for i := range v.states {
		v.states[i].sets.rangeAll(func(k string, e entry) {
			if _, ok := e.removable(); ok {
				dynamic = append(dynamic, k)
			} else {
				plain = append(plain, k)
			}
		})
	}
	sort.Strings(plain)
	sort.Strings(dynamic)
	return plain, dynamic
}

// writeHeader emits the SETDB2 header fields after the magic.
func (v *SnapshotView) writeHeader(bw *bufio.Writer) error {
	opts := v.db.opts
	kind := string(opts.HashKind)
	hdr := make([]byte, 0, 64)
	hdr = binary.LittleEndian.AppendUint64(hdr, opts.Namespace)
	hdr = binary.LittleEndian.AppendUint64(hdr, opts.Bits)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(opts.K))
	hdr = binary.LittleEndian.AppendUint64(hdr, opts.Seed)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(opts.TreeDepth))
	hdr = binary.LittleEndian.AppendUint64(hdr, opts.DesignSetSize)
	if opts.Pruned {
		hdr = append(hdr, 1)
	} else {
		hdr = append(hdr, 0)
	}
	hdr = append(hdr, byte(len(kind)))
	hdr = append(hdr, kind...)
	backend := string(opts.Backend)
	hdr = append(hdr, byte(len(backend)))
	hdr = append(hdr, backend...)
	_, err := bw.Write(hdr)
	return err
}

// WriteBundleTo serializes the pinned view as a restore bundle: the
// SETDB2 stream plus, for pruned databases, the serialized tree. The
// tree bytes are produced after the view pin, which is exactly the safe
// order — the monotone tree can only cover more than the pinned filters
// need, never less.
func (v *SnapshotView) WriteBundleTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	if _, err := io.WriteString(cw, bundleMagic); err != nil {
		return cw.n, err
	}
	if _, err := v.WriteTo(cw); err != nil {
		return cw.n, err
	}
	if !v.db.opts.Pruned {
		_, err := cw.Write([]byte{0})
		return cw.n, err
	}
	if _, err := cw.Write([]byte{1}); err != nil {
		return cw.n, err
	}
	if _, err := v.db.tree.WriteTo(cw); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadBundle deserializes a bundle written by WriteBundleTo, or a bare
// SETDB2 stream for non-pruned databases (a bare pruned stream has no tree
// and is rejected — use ReadFromWithIDs for those).
func ReadBundle(r io.Reader) (*DB, error) {
	// One shared buffered reader for all three sections. parse and
	// core.ReadTree wrap their reader in bufio.NewReader, which returns
	// the argument unchanged when it is already a *bufio.Reader of at
	// least default size — so no reader ever buffers ahead past its
	// section.
	br := bufio.NewReader(r)
	head, err := br.Peek(len(bundleMagic))
	if err != nil {
		return nil, fmt.Errorf("setdb: reading bundle magic: %w", err)
	}
	if string(head) != bundleMagic {
		// Bare database stream (parse validates its own magic).
		db, err := parse(br)
		if err != nil {
			return nil, err
		}
		if db.opts.Pruned {
			return nil, fmt.Errorf("setdb: bare pruned snapshot has no tree; restore needs a bundle (or ReadFromWithIDs)")
		}
		return db, nil
	}
	if _, err := br.Discard(len(bundleMagic)); err != nil {
		return nil, err
	}
	db, err := parse(br)
	if err != nil {
		return nil, err
	}
	presence, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("setdb: reading bundle tree flag: %w", err)
	}
	switch presence {
	case 0:
		if db.opts.Pruned {
			return nil, fmt.Errorf("setdb: bundle of a pruned database is missing its tree")
		}
		return db, nil
	case 1:
		tree, err := core.ReadTree(br)
		if err != nil {
			return nil, fmt.Errorf("setdb: bundle tree: %w", err)
		}
		if err := db.adoptTree(tree); err != nil {
			return nil, err
		}
		return db, nil
	default:
		return nil, fmt.Errorf("setdb: bad bundle tree flag %d", presence)
	}
}

// adoptTree swaps in a deserialized tree after checking it was built
// with the database's exact profile — a tree from a different profile
// would silently missample every set.
func (db *DB) adoptTree(tree *core.Tree) error {
	cfg := tree.Config()
	o := db.opts
	if cfg.Namespace != o.Namespace || cfg.Bits != o.Bits || cfg.K != o.K ||
		cfg.HashKind != o.HashKind || cfg.Seed != o.Seed || cfg.Depth != o.TreeDepth {
		return fmt.Errorf("setdb: bundle tree profile %+v does not match database options", cfg)
	}
	if o.Pruned != tree.Pruned() {
		return fmt.Errorf("setdb: bundle tree pruned=%v, database pruned=%v", tree.Pruned(), o.Pruned)
	}
	db.tree = tree
	return nil
}
