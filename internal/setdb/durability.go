package setdb

// Durability primitives: a version-pinned SnapshotView of the key map, and
// the one on-disk form of a database — the self-delimiting "bundle" that
// Save and Load, GET /v1/snapshot and POST /v1/restore, the wire restore op
// and every snapshot of the durability layer (internal/wal) read and write.
// Which leaves of a pruned tree exist is part of a database's state (the
// filters do not say), so the bundle carries the sets followed by the
// serialized BloomSampleTree:
//
//	magic    [7]byte "BSTBND1"
//	sets     [6]byte "SETDB2"
//	         namespace uint64, bits uint64, k uint32, seed uint64,
//	         depth uint32, design uint64, pruned uint8,
//	         uint8 length + hash kind, uint8 length + backend kind
//	         plain    uint32 count × { keyLen uint16, key, len uint32, membership envelope }
//	         dynamic  uint32 count × { keyLen uint16, key, len uint32, membership envelope }
//	tree     uint8 presence flag; when 1, a core.Tree stream ("BST2";
//	         a "BST1" one is still read)
//
// All integers are little-endian. Each set is a tagged membership envelope
// ("BSM1" + backend kind), so a bundle can mix backends and a reader
// reconstructs the right implementation per set; views are validated against
// the database profile on load. The two sections are the one key space
// written by capability — the keys whose values cannot remove ids, then those
// whose values can — and the loader holds a bundle to that: a key appears
// once in the whole stream, and an envelope's backend belongs in the section
// it was found in. A full tree is rebuilt deterministically from the header
// options, so its bundle carries presence 0; a pruned one carries its tree.
// The sets alone (a stream that begins "SETDB2", what Save wrote before it
// wrote bundles) are not a database and are refused.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/membership"
)

const (
	bundleMagic = "BSTBND1"
	dbMagic     = "SETDB2"
)

// SnapshotView is an immutable view of the database's sets, pinned at
// construction: every key's value between two batches, never inside one.
// Serializing it never blocks writers or readers: the pinned values are
// immutable, and on a pruned database the shared tree is monotone — it only
// ever grows — so any tree state serialized at or after the pin covers every
// id reachable through the pinned filters.
type SnapshotView struct {
	db *DB
	// plain and dynamic are the pinned sets, each sorted by key, split by
	// capability into the format's two sections: the values that cannot
	// remove ids, then those that can.
	plain, dynamic []pinned
}

// pinned is one key and its value in a SnapshotView.
type pinned struct {
	key string
	m   membership.Membership
}

// SnapshotView pins the current sets. It copies the key map under the
// writer mutex, so writers wait for the copy (not for the sort after it, nor
// for anything done with the view) and readers for nothing.
func (db *DB) SnapshotView() *SnapshotView {
	var sets []pinned
	db.mu.Lock()
	db.sets.Range(func(k, v any) bool {
		sets = append(sets, pinned{k.(string), v.(membership.Membership)})
		return true
	})
	db.mu.Unlock()
	slices.SortFunc(sets, func(a, b pinned) int { return strings.Compare(a.key, b.key) })
	v := &SnapshotView{db: db}
	for _, s := range sets {
		if _, ok := s.m.(membership.DynamicMembership); ok {
			v.dynamic = append(v.dynamic, s)
		} else {
			v.plain = append(v.plain, s)
		}
	}
	return v
}

// writeSets emits the bundle's sets: the SETDB2 magic, the header and the
// two keyed sections.
func (v *SnapshotView) writeSets(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(dbMagic); err != nil {
		return err
	}
	if err := v.writeHeader(bw); err != nil {
		return err
	}
	for _, sets := range [][]pinned{v.plain, v.dynamic} {
		if err := writeSection(bw, sets); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeHeader emits the header fields after the SETDB2 magic.
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

// WriteBundleTo serializes the pinned view as a bundle: the sets plus, for
// pruned databases, the serialized tree. The tree bytes are produced after
// the view pin, which is exactly the safe order — the monotone tree can only
// cover more than the pinned filters need, never less.
func (v *SnapshotView) WriteBundleTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	if _, err := io.WriteString(cw, bundleMagic); err != nil {
		return cw.n, err
	}
	if err := v.writeSets(cw); err != nil {
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

// WriteBundleFile writes the pinned view's bundle to path so that a crash, or
// a write that fails, leaves either the file that was there or the whole new
// one: the bytes go to path+".tmp", are synced, and only then renamed over
// path, and the directory is synced after. It returns the bundle's size.
func (v *SnapshotView) WriteBundleFile(path string) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	n, err := v.WriteBundleTo(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	// Best-effort: not every platform can sync a directory.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return n, nil
}

// Save writes the database to path as a bundle (WriteBundleFile of a view
// pinned now): the same bytes GET /v1/snapshot serves and the durability
// layer keeps as snap-*.snap, and the file Load and bstserved -db read.
func (db *DB) Save(path string) error {
	_, err := db.SnapshotView().WriteBundleFile(path)
	return err
}

// Load reads a database from a bundle file: one written by Save, downloaded
// from GET /v1/snapshot, or a durability directory's snap-*.snap.
func Load(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBundle(f)
}

// ReadBundle deserializes a bundle written by WriteBundleTo.
func ReadBundle(r io.Reader) (*DB, error) {
	// One shared buffered reader for all three sections. core.ReadTree wraps
	// its reader in bufio.NewReader, which returns the argument unchanged
	// when it is already a *bufio.Reader of at least default size — so no
	// reader ever buffers ahead past its section.
	br := bufio.NewReader(r)
	head, err := br.Peek(len(bundleMagic))
	if err != nil {
		return nil, fmt.Errorf("setdb: reading bundle magic: %w", err)
	}
	if string(head) != bundleMagic {
		if string(head[:len(dbMagic)]) == dbMagic {
			return nil, fmt.Errorf("setdb: a bare %s stream holds a database's sets without its tree and is not a bundle (%s); write one with Save or GET /v1/snapshot", dbMagic, bundleMagic)
		}
		return nil, fmt.Errorf("setdb: bad magic %q", head)
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

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
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
