package setdb

import (
	"fmt"
	"sort"

	"repro/internal/bloom"
	"repro/internal/membership"
)

// The write path. There is one: every mutation is a Write, the rule that
// applies one Write to one key is next, and ApplyBatch is the sequence
// around it — validate, grow the tree, lock, build, publish. A single Add
// is a batch of one. Folding N pending writes into one call is group
// commit: the chunk table is cloned once per touched shard, each touched
// chunk once, and the atomic store happens once — N writes landing in one
// shard pay amortized O(keys/chunk · touched chunks / N) copying instead of
// N full clones, which is what heavy ingest (bulk loads, the server's batch
// /v1/add) needs.

// Write is one pending mutation of the set under Key.
//
// An add (Remove unset) inserts IDs, creating the key on first use. Dynamic
// names the kind a new key gets — removable, on the database's configured
// membership backend, or plain — and must match the kind an existing key
// already has (ErrKeyClash): removability is fixed at creation.
//
// A remove with IDs (or with Dynamic set) removes one insertion of each id:
// the key must hold a removable set (ErrNoSet) and every id must be a
// member at its turn (bloom.ErrNotMember) or the whole batch aborts
// unpublished; with Dynamic and no IDs it changes nothing. A remove without
// IDs and without Dynamic unbinds the key, whatever its kind, and an absent
// key is a no-op rather than an error, matching Delete's bool-not-error
// contract. Mixed add/remove batches compose in slice order and still
// publish once per touched shard.
type Write struct {
	Key     string
	IDs     []uint64
	Dynamic bool
	Remove  bool
}

// next is the one rule a write is applied by: given the entry bound to
// w.Key (bound false: none) it returns the entry to bind in its place, or
// bind false to leave the key unbound. It touches no shard state, so a
// failed batch has published nothing.
func (db *DB) next(cur entry, bound bool, w *Write) (entry, bool, error) {
	d, removable := cur.removable()
	switch {
	case w.Remove && !w.Dynamic && len(w.IDs) == 0:
		return entry{}, false, nil
	case w.Remove:
		if !bound || !removable {
			return entry{}, false, fmt.Errorf("%w %q (dynamic)", ErrNoSet, w.Key)
		}
		m, err := d.CloneRemove(w.IDs...)
		return entry{m: m}, err == nil, err
	case !bound && w.Dynamic:
		db.gen.Add(1)
		m, err := db.newDynamic(w.IDs)
		return entry{m: m}, err == nil, err
	case !bound:
		db.gen.Add(1)
		return entry{m: membership.FromBloom(bloom.NewFromElements(db.fam, w.IDs))}, true, nil
	case removable && !w.Dynamic:
		return entry{}, false, fmt.Errorf("%w: %q already exists as a dynamic set", ErrKeyClash, w.Key)
	case w.Dynamic && !removable:
		return entry{}, false, fmt.Errorf("%w: %q already exists as a plain set", ErrKeyClash, w.Key)
	}
	return entry{m: cur.m.CloneAdd(w.IDs...)}, true, nil
}

// ApplyBatch applies a batch of writes with one snapshot publish per
// touched shard. Writes to the same key compose in slice order, exactly
// as sequential single writes would; adds and removes may be mixed freely
// in one batch.
//
// The batch is all-or-nothing: every id is namespace-validated (a remove's
// too: an out-of-range id can alias onto occupied counter positions and
// would otherwise corrupt genuine members' counters while looking like a
// successful remove) and every key's kind is checked before anything is
// published, and a failure (ErrOutOfRange, ErrKeyClash, ErrNoSet,
// bloom.ErrNotMember) leaves the database exactly as it was. On a pruned
// database the shared tree grows once for the union of all inserted ids,
// before any shard lock is taken — tree growth has its own lock, so a slow
// growth never stalls a shard's other writers — and before the new
// versions become visible, so a published set is always coverable by the
// tree. Ids present in the tree but, because the batch later fails, in no
// filter cost occupancy, never correctness.
//
// Locking: the touched shards are locked in ascending index order (the
// same order snapshotAll uses), so concurrent batches and serialization
// never deadlock. Readers are unaffected throughout — they keep loading
// the previous snapshots until the single publishing store.
func (db *DB) ApplyBatch(writes []Write) error {
	_, err := db.apply(writes)
	return err
}

// apply is ApplyBatch, also reporting how many bound keys the batch unbound.
func (db *DB) apply(writes []Write) (unbound int, err error) {
	if len(writes) == 0 {
		return 0, nil
	}
	// Validate everything validatable before paying for tree growth.
	// Only inserted ids grow the tree: removals never add occupancy (and
	// the tree is monotone anyway — removed ids keep their ranges).
	total := 0
	for i := range writes {
		if err := db.validateIDs(writes[i].IDs); err != nil {
			return 0, err
		}
		if !writes[i].Remove {
			total += len(writes[i].IDs)
		}
	}
	if db.opts.Pruned && total > 0 {
		all := make([]uint64, 0, total)
		for i := range writes {
			if !writes[i].Remove {
				all = append(all, writes[i].IDs...)
			}
		}
		if err := db.tree.InsertBatch(all); err != nil {
			return 0, err
		}
	}

	// Group the writes by shard, keeping slice order within each group.
	hashes := make([]uint64, len(writes))
	var byShard [numShards][]int
	var touched []int
	for i := range writes {
		h := keyHash(writes[i].Key)
		hashes[i] = h
		si := int(h % numShards)
		if byShard[si] == nil {
			touched = append(touched, si)
		}
		byShard[si] = append(byShard[si], i)
	}
	// touched must be ascending for the deadlock-free lock order.
	sort.Ints(touched)
	for _, si := range touched {
		db.shards[si].mu.Lock()
	}
	defer func() {
		for _, si := range touched {
			db.shards[si].mu.Unlock()
		}
	}()

	// Build every shard's successor map before publishing any of them: an
	// error met while building aborts the whole batch with nothing
	// published. A shard's builder is created by the first write that
	// changes the shard, so one touched only by unbinds of absent keys
	// copies nothing and publishes nothing.
	builders := make([]*chunkBuilder[entry], len(touched))
	for ti, si := range touched {
		cur := db.shards[si].load().sets
		var b *chunkBuilder[entry]
		for _, wi := range byShard[si] {
			w, h := &writes[wi], hashes[wi]
			// Later writes observe earlier ones of the batch.
			var e entry
			var bound bool
			if b != nil {
				e, bound = b.get(h, w.Key)
			} else {
				e, bound = cur.get(h, w.Key)
			}
			e, bind, err := db.next(e, bound, w)
			if err != nil {
				return 0, err
			}
			if !bind && !bound {
				continue
			}
			if b == nil {
				b = newChunkBuilder(cur)
			}
			if bind {
				b.set(h, w.Key, e)
			} else {
				b.delete(h, w.Key)
				unbound++
			}
		}
		builders[ti] = b
	}

	// Publish: one atomic store per changed shard.
	var publishes, copied uint64
	for ti, b := range builders {
		if b != nil {
			db.shards[touched[ti]].state.Store(&shardState{sets: b.freeze()})
			publishes++
			copied += b.bytes
		}
	}
	db.recordWrites(uint64(len(writes)), publishes, copied)
	return unbound, nil
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
// partially-removed state is ever published. (The shared pruned tree
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
