package setdb

import (
	"fmt"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/membership"
)

// The write path. There is one: every mutation is a Write, the rule that
// applies one Write to one key is next, and ApplyBatch is the sequence
// around it — validate, grow the tree beside building the values under the
// writer mutex, store. A single Add is a batch of one; the server's batch
// /v1/add and bulk loads fold many writes into one call, which grows the
// tree once and takes the writer mutex once.

// Write is one pending mutation of the set under Key.
//
// An add (Remove unset) inserts IDs, creating the key on first use. Dynamic
// names the kind a new key gets — removable, on the database's configured
// membership backend, or plain — and must match the kind an existing key
// already has (ErrKeyClash): removability is fixed at creation.
//
// A remove with IDs (or with Dynamic set) removes one insertion of each id:
// the key must hold a removable set (ErrNoSet) and every id must be a
// member at its turn (bloom.ErrNotMember) or the whole batch aborts with
// nothing stored; with Dynamic and no IDs it changes nothing. A remove
// without IDs and without Dynamic unbinds the key, whatever its kind, and an
// absent key is a no-op rather than an error, matching Delete's
// bool-not-error contract. Mixed add/remove batches compose in slice order.
type Write struct {
	Key     string
	IDs     []uint64
	Dynamic bool
	Remove  bool
}

// next is the one rule a write is applied by: given the value bound to
// w.Key (nil: none) it returns the value to bind in its place, nil to leave
// the key unbound. It stores nothing, so a failed batch has stored nothing.
func (db *DB) next(cur membership.Membership, w *Write) (membership.Membership, error) {
	d, removable := cur.(membership.DynamicMembership)
	switch {
	case w.Remove && !w.Dynamic && len(w.IDs) == 0:
		return nil, nil
	case w.Remove:
		if !removable {
			return nil, fmt.Errorf("%w %q (dynamic)", ErrNoSet, w.Key)
		}
		return d.CloneRemove(w.IDs...)
	case cur == nil && w.Dynamic:
		return db.newDynamic(w.IDs)
	case cur == nil:
		return membership.FromBloom(bloom.NewFromElements(db.fam, w.IDs)), nil
	case removable && !w.Dynamic:
		return nil, fmt.Errorf("%w: %q already exists as a dynamic set", ErrKeyClash, w.Key)
	case w.Dynamic && !removable:
		return nil, fmt.Errorf("%w: %q already exists as a plain set", ErrKeyClash, w.Key)
	}
	return cur.CloneAdd(w.IDs...), nil
}

// ApplyBatch applies a batch of writes. Writes to the same key compose in
// slice order, exactly as sequential single writes would; adds and removes
// may be mixed freely in one batch.
//
// The batch is all-or-nothing: every id is namespace-validated (a remove's
// too: an out-of-range id can alias onto occupied counter positions and
// would otherwise corrupt genuine members' counters while looking like a
// successful remove) and every touched key's final value is built before
// anything is stored, so a failure (ErrKeyTooLong, ErrOutOfRange,
// ErrKeyClash, ErrNoSet, bloom.ErrNotMember) leaves the database exactly as
// it was. On a pruned database the shared tree grows once for the union of
// all inserted ids — tree growth has its own lock — and before the new
// values become visible, so a stored set is always coverable by the tree.
// Ids present in the tree but, because the batch later fails, in no filter
// cost occupancy, never correctness.
//
// Readers are unaffected throughout: they load the previous values until
// each key's store. SnapshotView waits for the whole batch.
func (db *DB) ApplyBatch(writes []Write) error {
	_, err := db.apply(writes)
	return err
}

// apply is ApplyBatch, also reporting how many bound keys the batch unbound.
//
// A batch inserting core.GrowRun ids or more grows the tree on a goroutine
// of its own while this one builds the final values under the writer mutex;
// the values are stored only once both are done, and a growth error comes
// first, as it would have before any value was built. A smaller batch grows
// the tree first, on this goroutine, and starts none.
func (db *DB) apply(writes []Write) (unbound int, err error) {
	if len(writes) == 0 {
		return 0, nil
	}
	// Validate everything validatable before paying for tree growth.
	// Only inserted ids grow the tree: removals never add occupancy (and
	// the tree is monotone anyway — removed ids keep their ranges).
	total := 0
	for i := range writes {
		if k := writes[i].Key; len(k) > MaxKeyLen {
			return 0, fmt.Errorf("%w: %d bytes, at most %d", ErrKeyTooLong, len(k), MaxKeyLen)
		}
		if err := db.validateIDs(writes[i].IDs); err != nil {
			return 0, err
		}
		if !writes[i].Remove {
			total += len(writes[i].IDs)
		}
	}
	var grown <-chan error
	if db.opts.Pruned && total > 0 {
		all := make([]uint64, 0, total)
		for i := range writes {
			if !writes[i].Remove {
				all = append(all, writes[i].IDs...)
			}
		}
		if total >= core.GrowRun {
			grown = db.growAside(all)
		} else if err := db.tree.InsertBatch(all); err != nil {
			return 0, err
		}
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	// Each touched key's final value, built over the batch's own overlay so
	// later writes see earlier ones; an error stops the build, and nothing is
	// stored.
	final := make(map[string]membership.Membership, len(writes))
	var created uint64
	var failed error
	for i := range writes {
		w := &writes[i]
		cur, seen := final[w.Key]
		if !seen {
			cur = db.load(w.Key)
		}
		m, err := db.next(cur, w)
		if err != nil {
			failed = err
			break
		}
		if cur == nil && m != nil {
			created++
		}
		final[w.Key] = m
	}
	// The wait keeps the mutex: the values built are only right while no
	// other writer stores, and growth takes the tree's lock alone, never
	// this one.
	if grown != nil {
		if err := <-grown; err != nil {
			return 0, err
		}
	}
	if failed != nil {
		return 0, failed
	}
	for k, m := range final {
		if m != nil {
			db.sets.Store(k, m)
		} else if _, was := db.sets.LoadAndDelete(k); was {
			unbound++
		}
	}
	db.gen.Add(created)
	db.stateWrites.Add(uint64(len(writes)))
	return unbound, nil
}

// growAside grows the tree by ids on a goroutine of its own and returns
// where its error (or nil) arrives once it is done.
func (db *DB) growAside(ids []uint64) <-chan error {
	grown := make(chan error, 1)
	go func() { grown <- db.tree.InsertBatch(ids) }()
	return grown
}

// The single-write forms: each is a batch of one.

// Add inserts ids into the plain set stored under key, creating it on first
// use. The stored filter is replaced by a copy-on-write clone, so in-flight
// readers of the previous version are never disturbed and new readers see
// the update atomically.
func (db *DB) Add(key string, ids ...uint64) error {
	return db.ApplyBatch([]Write{{Key: key, IDs: ids}})
}

// AddDynamic inserts ids into the removable set under key, creating it on
// first use with the database's configured backend.
func (db *DB) AddDynamic(key string, ids ...uint64) error {
	return db.ApplyBatch([]Write{{Key: key, IDs: ids, Dynamic: true}})
}

// RemoveDynamic removes one insertion of each id from the removable set
// under key. The batch is all-or-nothing: removing an id that is not
// currently a member is an error and leaves the whole set unchanged — no
// partially-removed state is ever stored. (The shared pruned tree
// retains the id's range — tree occupancy is monotone — which affects only
// performance, never correctness.)
func (db *DB) RemoveDynamic(key string, ids ...uint64) error {
	return db.ApplyBatch([]Write{{Key: key, IDs: ids, Dynamic: true, Remove: true}})
}

// Delete unbinds key, whatever kind of set it holds. It returns false if
// the key is absent.
func (db *DB) Delete(key string) bool {
	unbound, _ := db.apply([]Write{{Key: key, Remove: true}}) // an unbind carries no ids and meets no kind: it cannot fail
	return unbound > 0
}

// AddMany is the variadic convenience form of ApplyBatch.
func (db *DB) AddMany(writes ...Write) error { return db.ApplyBatch(writes) }
