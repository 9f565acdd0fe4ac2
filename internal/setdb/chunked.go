package setdb

// Chunked persistent shard states. The original copy-on-write design
// cloned a shard's whole key map on every write — O(keys/shard)
// amplification that becomes the dominant write cost once a shard holds
// ~10⁵ keys. Here each shard's key space is instead split into hash
// chunks; a shard snapshot holds an immutable table of per-chunk maps,
// and a write clones the table (one pointer per chunk) plus only the one
// chunk its key lives in, so the copied volume is O(chunks + keys/chunk)
// instead of O(keys/shard). Everything stays within the existing
// immutable-snapshot contract: chunk maps and the table are frozen once a
// shardState is published through the shard's atomic pointer, readers
// never lock, and an untouched chunk is carried into the successor
// snapshot by reference.
//
// The chunk count is adaptive per shard map: a table starts at one chunk
// and doubles (up to maxChunks) whenever its average occupancy crosses
// chunkGrowKeys, rehashing inside the private builder before the version
// is published. A fixed 256-chunk table is optimal at ~10⁵ keys/shard
// but makes every small shard pay a 2 KB table clone per write; with
// growth, a shard holding a handful of keys clones an 8–16 byte table
// instead, while hot shards converge to the same 256-chunk layout as
// before. Tables never shrink: occupancy is a high-water signal, and a
// shrink would make delete-heavy batches rehash on publish for no
// read-side benefit.

const (
	// maxChunks caps the number of chunks a shard map grows to. With the
	// 64-way shard split in front of it, a saturated database holds 16384
	// chunks; at 10⁵ keys in one shard a chunk carries ~400
	// keys, so a write copies ~2 KB of table plus ~20 KB of chunk instead
	// of several MB of flat map.
	maxChunks = 256
	// chunkGrowKeys is the average keys-per-chunk threshold that triggers
	// table doubling. At 32 the rehash cost stays a small multiple of the
	// writes that caused it, and a shard crosses from 1 chunk at ~32 keys
	// to the full 256 around 8K keys.
	chunkGrowKeys = 32
	// perEntryCopyBytes estimates the bytes copied per entry carried into
	// a cloned chunk beyond the key bytes themselves: string header, the
	// entry value and amortized map-bucket overhead.
	perEntryCopyBytes = 48
)

// tableCopyBytes estimates the bytes copied when an n-chunk table is
// cloned (one map header per chunk).
func tableCopyBytes(n int) uint64 { return uint64(n) * 8 }

// entryCopyBytes is the database's estimate of the bytes copied when one
// stored entry with a key of keyLen bytes is carried into a cloned map:
// the formula behind the Stats counters, and the one a flat-map baseline
// must be charged by (TestWriteAmplificationBounded).
func entryCopyBytes(keyLen int) uint64 { return perEntryCopyBytes + uint64(keyLen) }

// keyHash is the FNV-1a hash both the shard split and the chunk split
// derive from: the shard index uses the hash modulo numShards, the chunk
// index an independent higher bit range.
func keyHash(key string) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return h
}

// shardIndex maps a key to its shard.
func shardIndex(key string) int { return int(keyHash(key) % numShards) }

// ShardOf returns the shard index key maps to. Exposed for tests and
// workload planning that need shard-local key sets (stressing one shard
// at a chosen occupancy); the mapping is stable for a given key, but the
// shard count is an internal constant.
func ShardOf(key string) int { return shardIndex(key) }

// chunkIndexIn maps a key hash to its chunk within an n-chunk table
// (n must be a power of two). FNV-1a's high bits avalanche poorly for
// short keys — and the shard split has already conditioned the low bits
// — so the hash is remixed with a 64-bit finalizer before slicing; a raw
// (h>>32)&(n-1) slice leaves small tables badly unbalanced (a measured
// 46/4 split over 50 shard-local keys at n=2). The remix is a fixed
// function of the key hash, so every table size still slices the same
// bit string and growth only splits chunks, never reshuffles unrelated
// keys between surviving ones.
func chunkIndexIn(h uint64, n int) int {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int((h >> 32) & uint64(n-1))
}

// chunkedMap is a persistent string-keyed map split into hash chunks: an
// immutable table of small immutable maps whose length is a power of two
// in [1, maxChunks], grown with occupancy. The zero value is the empty
// map. Readers use get/len/rangeAll with no synchronization; successor
// versions are produced by a chunkBuilder, which clones the table and only
// the touched chunks.
type chunkedMap[V any] struct {
	chunks []map[string]V // nil for the empty map; immutable once published
	count  int
}

// len returns the number of stored keys.
func (c chunkedMap[V]) len() int { return c.count }

// numChunks returns the current table size (0 for the empty map).
func (c chunkedMap[V]) numChunks() int { return len(c.chunks) }

// get looks key up using its precomputed hash.
func (c chunkedMap[V]) get(h uint64, key string) (V, bool) {
	if len(c.chunks) == 0 {
		var zero V
		return zero, false
	}
	v, ok := c.chunks[chunkIndexIn(h, len(c.chunks))][key]
	return v, ok
}

// rangeAll calls fn for every stored key/value, in unspecified order.
func (c chunkedMap[V]) rangeAll(fn func(key string, v V)) {
	for i := range c.chunks {
		for k, v := range c.chunks[i] {
			fn(k, v)
		}
	}
}

// chunkBuilder accumulates any number of writes into one successor
// chunkedMap version: the chunk table is cloned once up front, each
// touched chunk is cloned at most once (on first touch) and then mutated
// privately, and freeze publishes the result. It is the group-commit
// engine behind ApplyBatch — N writes landing in the same chunk pay for
// one clone, not N. Inserts that push the average occupancy past
// chunkGrowKeys double the private table (rehashing every entry, with the
// copies accounted) before the version is published.
type chunkBuilder[V any] struct {
	chunks []map[string]V
	dirty  []bool // chunks already cloned (safe to mutate)
	count  int
	bytes  uint64 // estimated bytes copied so far
}

// newChunkBuilder starts a builder from an existing version, paying the
// table clone immediately. An empty map starts at the minimum one-chunk
// table.
func newChunkBuilder[V any](from chunkedMap[V]) *chunkBuilder[V] {
	n := len(from.chunks)
	if n == 0 {
		n = 1
	}
	b := &chunkBuilder[V]{
		chunks: make([]map[string]V, n),
		dirty:  make([]bool, n),
		count:  from.count,
		bytes:  tableCopyBytes(n),
	}
	copy(b.chunks, from.chunks)
	return b
}

// get looks key up in the working state (later writes observe earlier
// ones, exactly as sequential single writes would).
func (b *chunkBuilder[V]) get(h uint64, key string) (V, bool) {
	v, ok := b.chunks[chunkIndexIn(h, len(b.chunks))][key]
	return v, ok
}

// set binds key to v, cloning the target chunk on first touch and
// growing the table first when the insert would cross the occupancy
// threshold.
func (b *chunkBuilder[V]) set(h uint64, key string, v V) {
	n := len(b.chunks)
	ci := chunkIndexIn(h, n)
	_, had := b.chunks[ci][key]
	if !had && n < maxChunks && b.count+1 > n*chunkGrowKeys {
		b.grow()
		ci = chunkIndexIn(h, len(b.chunks))
	}
	if !b.dirty[ci] {
		old := b.chunks[ci]
		m := make(map[string]V, len(old)+1)
		for k, val := range old {
			m[k] = val
			b.bytes += entryCopyBytes(len(k))
		}
		b.chunks[ci] = m
		b.dirty[ci] = true
	}
	if b.chunks[ci] == nil {
		// A dirty chunk can be nil after delete emptied it.
		b.chunks[ci] = make(map[string]V, 1)
	}
	if !had {
		b.count++
	}
	b.chunks[ci][key] = v
}

// delete removes key from the working state, cloning the target chunk on
// first touch; it reports whether the key was present, and a miss copies
// nothing. The table keeps its size: chunk counts never shrink.
func (b *chunkBuilder[V]) delete(h uint64, key string) bool {
	ci := chunkIndexIn(h, len(b.chunks))
	old := b.chunks[ci]
	if _, had := old[key]; !had {
		return false
	}
	if !b.dirty[ci] {
		var m map[string]V
		if len(old) > 1 {
			m = make(map[string]V, len(old)-1)
			for k, val := range old {
				if k != key {
					m[k] = val
					b.bytes += entryCopyBytes(len(k))
				}
			}
		}
		b.chunks[ci] = m
		b.dirty[ci] = true
	} else {
		delete(b.chunks[ci], key)
	}
	b.count--
	return true
}

// grow doubles the table until the pending insert fits under the
// occupancy threshold (or maxChunks is reached), rehashing every stored
// entry into the new layout. The rehash happens entirely inside the
// builder's private state, so published snapshots never observe a
// half-grown table; every moved entry and the new table are charged to
// the builder's copy accounting.
func (b *chunkBuilder[V]) grow() {
	target := len(b.chunks) * 2
	for target < maxChunks && b.count+1 > target*chunkGrowKeys {
		target *= 2
	}
	next := make([]map[string]V, target)
	dirty := make([]bool, target)
	for _, m := range b.chunks {
		for k, v := range m {
			ci := chunkIndexIn(keyHash(k), target)
			nm := next[ci]
			if nm == nil {
				nm = make(map[string]V, chunkGrowKeys)
				next[ci] = nm
				dirty[ci] = true
			}
			nm[k] = v
			b.bytes += entryCopyBytes(len(k))
		}
	}
	b.bytes += tableCopyBytes(target)
	b.chunks, b.dirty = next, dirty
}

// freeze returns the built version. The builder must not be used after.
func (b *chunkBuilder[V]) freeze() chunkedMap[V] {
	return chunkedMap[V]{chunks: b.chunks, count: b.count}
}
