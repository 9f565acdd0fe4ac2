// Package setdb implements the paper's §3.2 framework substrate: a
// database D̄ = {B(X₁), B(X₂), …} of sets stored only as Bloom filters,
// sharing one parameter profile and one BloomSampleTree. It is the layer a
// downstream application talks to — store adjacency lists, keyword
// posting lists or community member sets by key, then sample from or
// reconstruct any of them, without the database ever materializing the
// sets themselves.
//
// There is one key space and one kind of entry: a key is a set. Whether ids
// can be removed from it is a capability of the membership value stored
// under the key — a plain Bloom filter cannot forget a member, a counting
// Bloom filter can — chosen by the write that creates the key and fixed for
// the key's lifetime. Every read serves every key.
//
// The database persists to a single file, the bundle (Save/Load, or the
// streaming SnapshotView().WriteBundleTo/ReadBundle; durability.go has the
// format), so a collection built by an ingest job can be served by a separate
// process.
package setdb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/hashfam"
	"repro/internal/membership"
)

// Options configures a database.
type Options struct {
	// Namespace is the id domain [0, M) all stored sets draw from.
	Namespace uint64
	// Bits, K, HashKind, Seed define the shared Bloom-filter profile.
	Bits     uint64
	K        int
	HashKind hashfam.Kind
	Seed     uint64
	// TreeDepth is the BloomSampleTree depth; 0 derives it from the cost
	// model for DesignSetSize.
	TreeDepth int
	// DesignSetSize is the typical stored-set size used when TreeDepth is
	// derived (default 1000).
	DesignSetSize uint64
	// Pruned selects a Pruned-BloomSampleTree fed by the ids actually
	// inserted (recommended for sparse namespaces). A full tree is built
	// eagerly otherwise.
	Pruned bool
	// Backend names the membership backend a key created by a Dynamic
	// write gets: counting, the one removable backend ("" means counting).
	// Open checks the name with membership.ParseKind. A key created by a
	// plain write is always Bloom-backed. The name is persisted in the
	// bundle's header. Kept for bench/, which sets it (ROADMAP item 1).
	Backend membership.Kind
}

func (o Options) withDefaults() Options {
	if o.HashKind == "" {
		o.HashKind = hashfam.DefaultKind
	}
	if o.DesignSetSize == 0 {
		o.DesignSetSize = 1000
	}
	return o
}

// PlanOptions derives Options from a desired sampling accuracy, mirroring
// the paper's §5.4 planning.
func PlanOptions(accuracy float64, designSetSize, namespace uint64, k int) (Options, error) {
	plan, err := core.PlanTree(accuracy, designSetSize, namespace, k, 0)
	if err != nil {
		return Options{}, err
	}
	return Options{
		Namespace:     namespace,
		Bits:          plan.Bits,
		K:             plan.K,
		TreeDepth:     plan.Depth,
		DesignSetSize: designSetSize,
	}, nil
}

// ErrNoSet is wrapped by the error every query operation returns for an
// absent key; match it with errors.Is.
var ErrNoSet = errors.New("setdb: no set")

// ErrKeyClash is wrapped by an add whose Dynamic flag disagrees with the
// kind the key was created with (removability is fixed for a key's
// lifetime); match it with errors.Is.
var ErrKeyClash = errors.New("setdb: key clash")

// ErrOutOfRange is wrapped by writes carrying an id outside the
// database namespace; match it with errors.Is. It marks a caller
// mistake, as opposed to an internal failure.
var ErrOutOfRange = errors.New("setdb: id outside namespace")

// MaxKeyLen is the longest key a database holds, in bytes: a bundle stores
// a key's length in 16 bits, and the WAL refuses longer keys on replay.
const MaxKeyLen = 1<<16 - 1

// ErrKeyTooLong is wrapped by writes whose key is longer than MaxKeyLen;
// match it with errors.Is. Like ErrOutOfRange it marks a caller mistake.
var ErrKeyTooLong = errors.New("setdb: key too long")

// DB is a keyed collection of Bloom-filter-encoded sets over one shared
// namespace and one shared BloomSampleTree.
//
// A key's value is its membership value and nothing else: a plain Bloom
// filter, or, for a key created by a Dynamic write, a
// membership.DynamicMembership — a counting Bloom filter (8-bit counters,
// held as the plain filter's bits plus its counters of 2 or more), because
// the paper's motivating applications track communities whose membership
// changes over time (§1) and a plain Bloom filter cannot forget a member.
// Values are immutable: every write stores a fresh one, and what reads learn
// about a version hangs on that version's query view (core.Version) and is
// garbage with it.
//
// DB is safe for concurrent use, and no read takes the writer mutex: every
// operation that evaluates a stored filter (Sample, SampleN, Reconstruct,
// Contains, IntersectionEstimate, …) loads the key's immutable value from
// one sync.Map, so readers never wait on each other or on a write being
// built. There is one write path (ApplyBatch, see batch.go; Add, Delete
// and the rest are its single-write forms): it grows a pruned database's
// tree before anything is visible, so a stored set is always coverable by
// the tree, then builds every touched key's next value under one writer
// mutex and stores them. SnapshotView takes the same mutex to copy the
// key map, so a pin sees whole batches; a plain reader may see a
// multi-key batch's keys change one at a time.
//
// SampleMany (parallel.go) draws a batch on its caller's goroutine, without
// a lock, however many callers draw at once.
type DB struct {
	opts Options
	fam  hashfam.Family
	tree *core.Tree

	// sets maps each key to its membership.Membership. mu is held by every
	// writer and by SnapshotView, never by a reader.
	sets sync.Map
	mu   sync.Mutex

	gen         atomic.Uint64 // key lifetimes ever created (see Stats)
	stateWrites atomic.Uint64 // writes applied (see Stats)

	// lostDraws counts batch draws that ended on a false-positive path
	// and returned nothing (see Stats).
	lostDraws atomic.Uint64
	// estimatesComputed and estimatesRemembered count the intersection
	// estimates sampling requests computed and those they read back from a
	// filter version's index instead (see Stats).
	estimatesComputed, estimatesRemembered atomic.Uint64
	// drawsWarm and drawsDescended count the draws of the same requests that
	// were picks from a filter version's positives and those that were
	// descents of the tree (see Stats).
	drawsWarm, drawsDescended atomic.Uint64
}

// Open creates an empty database with the given options.
func Open(opts Options) (*DB, error) {
	opts = opts.withDefaults()
	backend, err := membership.ParseKind(string(opts.Backend))
	if err != nil {
		return nil, err
	}
	opts.Backend = backend
	if opts.TreeDepth == 0 {
		opts.TreeDepth, _ = core.PlanDepth(opts.Namespace, opts.Bits, 0)
	}
	cfg := core.Config{
		Namespace: opts.Namespace,
		Bits:      opts.Bits,
		K:         opts.K,
		HashKind:  opts.HashKind,
		Seed:      opts.Seed,
		Depth:     opts.TreeDepth,
	}
	var tree *core.Tree
	if opts.Pruned {
		tree, err = core.BuildPruned(cfg, nil)
	} else {
		tree, err = core.BuildTree(cfg)
	}
	if err != nil {
		return nil, err
	}
	fam, err := hashfam.New(opts.HashKind, opts.Bits, opts.K, opts.Seed)
	if err != nil {
		return nil, err
	}
	return &DB{opts: opts, fam: fam, tree: tree}, nil
}

// load is the lookup under every read and write: the value stored under
// key, or nil.
func (db *DB) load(key string) membership.Membership {
	v, _ := db.sets.Load(key)
	m, _ := v.(membership.Membership)
	return m
}

// get is load for a query: an absent key is an error wrapping ErrNoSet.
func (db *DB) get(key string) (membership.Membership, error) {
	if m := db.load(key); m != nil {
		return m, nil
	}
	return nil, fmt.Errorf("%w %q", ErrNoSet, key)
}

// newDynamic creates a removable set on the database's configured
// backend, pre-populated with ids.
func (db *DB) newDynamic(ids []uint64) (membership.DynamicMembership, error) {
	return membership.NewDynamicWith(db.opts.Backend, db.fam, db.opts.DesignSetSize, ids)
}

// Options returns the database's (defaulted) options.
func (db *DB) Options() Options { return db.opts }

// Tree exposes the shared BloomSampleTree (read-only use; on a pruned
// database it may grow concurrently with Add).
func (db *DB) Tree() *core.Tree { return db.tree }

// Len returns the number of stored sets, of either kind.
func (db *DB) Len() int { return len(db.Keys()) }

// Keys returns the keys of all stored sets, of either kind, in sorted order.
func (db *DB) Keys() []string {
	var keys []string
	db.sets.Range(func(k, _ any) bool {
		keys = append(keys, k.(string))
		return true
	})
	slices.Sort(keys)
	return keys
}

// validateIDs checks every id against the namespace bound.
func (db *DB) validateIDs(ids []uint64) error {
	for _, id := range ids {
		if id >= db.opts.Namespace {
			return fmt.Errorf("%w: id %d outside [0,%d)", ErrOutOfRange, id, db.opts.Namespace)
		}
	}
	return nil
}

// Filter returns the currently published version of the set under key (nil
// if absent) as its plain Bloom query view: a point-in-time filter
// compatible with the shared tree and with every other set, whatever the
// key's backend. It is immutable and shared (a removable backend's view is a
// header over the published version's bit vector) — a write to the same key
// publishes a new version rather than mutating it, so it is always safe to
// keep reading. A removable key's view is the projection of its counters, so
// a removed id answers only as a false positive of what is left.
func (db *DB) Filter(key string) *bloom.Filter {
	if m := db.load(key); m != nil {
		return m.QueryView()
	}
	return nil
}

// Membership returns the stored membership value for key (nil if
// absent), exposing the backend-native probe surface.
func (db *DB) Membership(key string) membership.Membership { return db.load(key) }

// Contains reports whether id answers positively for the set under key.
func (db *DB) Contains(key string, id uint64) (bool, error) {
	m, err := db.get(key)
	if err != nil {
		return false, err
	}
	return m.Contains(id), nil
}

// Sample draws one element from the set under key using BSTSample.
func (db *DB) Sample(key string, rng *rand.Rand, ops *core.Ops) (uint64, error) {
	m, err := db.get(key)
	if err != nil {
		return 0, err
	}
	return db.tree.Sample(m.QueryView(), rng, ops)
}

// SampleN draws r elements in a single tree pass (§5.3).
func (db *DB) SampleN(key string, r int, withReplacement bool, rng *rand.Rand, ops *core.Ops) ([]uint64, error) {
	m, err := db.get(key)
	if err != nil {
		return nil, err
	}
	return db.tree.SampleN(m.QueryView(), r, withReplacement, rng, ops)
}

// Reconstruct returns the set stored under key by §6's walk under rule
// (core.Tree.Reconstruct) on the key's published version, counted into ops
// if non-nil. What a server answers with is the version's table
// (PositivesFrom).
func (db *DB) Reconstruct(key string, rule core.PruneRule, ops *core.Ops) ([]uint64, error) {
	m, err := db.get(key)
	if err != nil {
		return nil, err
	}
	return db.tree.Reconstruct(m.QueryView(), rule, ops)
}

// IntersectionEstimate estimates |A ∩ B| for two stored sets. The two
// values are loaded independently (no locks, so no ordering concerns);
// each filter is an immutable point-in-time version.
func (db *DB) IntersectionEstimate(keyA, keyB string) (float64, error) {
	a, err := db.get(keyA)
	if err != nil {
		return 0, err
	}
	b, err := db.get(keyB)
	if err != nil {
		return 0, err
	}
	return bloom.EstimateIntersectionOf(a.QueryView(), b.QueryView()), nil
}

// writeSection serializes one keyed section (plain or dynamic): a count,
// then sorted key/envelope pairs.
func writeSection(bw *bufio.Writer, sets []pinned) error {
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(sets)))
	if _, err := bw.Write(cnt[:]); err != nil {
		return err
	}
	for _, s := range sets {
		k := s.key
		if len(k) > MaxKeyLen {
			return fmt.Errorf("%w: %.20q...", ErrKeyTooLong, k)
		}
		data, err := s.m.MarshalBinary()
		if err != nil {
			return err
		}
		var kl [2]byte
		binary.LittleEndian.PutUint16(kl[:], uint16(len(k)))
		if _, err := bw.Write(kl[:]); err != nil {
			return err
		}
		if _, err := bw.WriteString(k); err != nil {
			return err
		}
		var fl [4]byte
		binary.LittleEndian.PutUint32(fl[:], uint32(len(data)))
		if _, err := bw.Write(fl[:]); err != nil {
			return err
		}
		if _, err := bw.Write(data); err != nil {
			return err
		}
	}
	return nil
}

// parse reads a bundle's sets (durability.go has the format). For pruned
// databases the returned DB's tree is empty until ReadBundle adopts the one
// that follows.
func parse(br *bufio.Reader) (*DB, error) {
	magic := make([]byte, len(dbMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != dbMagic {
		return nil, fmt.Errorf("setdb: bad magic %q", magic)
	}
	fixed := make([]byte, 8+8+4+8+4+8+1+1)
	if _, err := io.ReadFull(br, fixed); err != nil {
		return nil, err
	}
	opts := Options{
		Namespace:     binary.LittleEndian.Uint64(fixed[0:]),
		Bits:          binary.LittleEndian.Uint64(fixed[8:]),
		K:             int(binary.LittleEndian.Uint32(fixed[16:])),
		Seed:          binary.LittleEndian.Uint64(fixed[20:]),
		TreeDepth:     int(binary.LittleEndian.Uint32(fixed[28:])),
		DesignSetSize: binary.LittleEndian.Uint64(fixed[32:]),
		Pruned:        fixed[40] == 1,
	}
	kindLen := int(fixed[41])
	kind := make([]byte, kindLen)
	if _, err := io.ReadFull(br, kind); err != nil {
		return nil, err
	}
	opts.HashKind = hashfam.Kind(kind)
	// The configured dynamic backend rides in the header.
	var bl [1]byte
	if _, err := io.ReadFull(br, bl[:]); err != nil {
		return nil, err
	}
	bk := make([]byte, bl[0])
	if _, err := io.ReadFull(br, bk); err != nil {
		return nil, err
	}
	backend, err := membership.ParseKind(string(bk))
	if err != nil {
		return nil, fmt.Errorf("setdb: header: %w", err)
	}
	opts.Backend = backend

	db, err := Open(opts)
	if err != nil {
		return nil, err
	}
	// Both sections load into the one map under the invariants the write
	// path keeps: a key is bound once, and only a dynamic-section value can
	// remove ids (a counting envelope in the plain section would otherwise
	// load as a removable key no write had created as one). No other
	// goroutine holds the database yet, so nothing is locked.
	for _, section := range []string{"plain", "dynamic"} {
		removable := section == "dynamic"
		err := readSection(br, func(key string, data []byte) error {
			m, err := membership.Unmarshal(data)
			if err != nil {
				return fmt.Errorf("setdb: %s set %q: %w", section, key, err)
			}
			if _, ok := m.(membership.DynamicMembership); ok != removable {
				return fmt.Errorf("setdb: %s set %q: backend %q does not belong in this section", section, key, m.Backend())
			}
			if err := membership.MatchesFamily(m, db.fam); err != nil {
				return fmt.Errorf("setdb: %s set %q: %w", section, key, err)
			}
			if _, dup := db.sets.LoadOrStore(key, m); dup {
				return fmt.Errorf("setdb: %s set %q: key appears twice in the file", section, key)
			}
			db.gen.Add(1)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return db, nil
}

// readSection decodes one keyed section written by writeSection, calling
// fn for each key/envelope pair. An envelope's declared length is read
// through a bounded reader, so memory is allocated as bytes arrive: a forged
// length cannot make the loader allocate what the stream does not hold.
func readSection(br *bufio.Reader, fn func(key string, data []byte) error) error {
	var cnt [4]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return err
	}
	count := binary.LittleEndian.Uint32(cnt[:])
	for i := uint32(0); i < count; i++ {
		var kl [2]byte
		if _, err := io.ReadFull(br, kl[:]); err != nil {
			return err
		}
		key := make([]byte, binary.LittleEndian.Uint16(kl[:]))
		if _, err := io.ReadFull(br, key); err != nil {
			return err
		}
		var fl [4]byte
		if _, err := io.ReadFull(br, fl[:]); err != nil {
			return err
		}
		n := binary.LittleEndian.Uint32(fl[:])
		data, err := io.ReadAll(io.LimitReader(br, int64(n)))
		if err != nil {
			return err
		}
		if uint32(len(data)) != n {
			return io.ErrUnexpectedEOF
		}
		if err := fn(string(key), data); err != nil {
			return err
		}
	}
	return nil
}
