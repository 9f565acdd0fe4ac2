package setdb

// Introspection: a point-in-time view of the database's internal shape —
// shard occupancy, chunk occupancy, write amplification, tree growth
// epochs, memory — for operational surfaces (the bstserved /v1/stats
// endpoint, debugging, capacity planning). All of it reads the same
// lock-free snapshots the query path uses, so calling Stats on a hot
// database disturbs nothing.

// ShardStats describes one key shard.
type ShardStats struct {
	// Sets and Dynamic are the number of keys in the shard's current
	// snapshot holding a plain set and a removable one.
	Sets    int
	Dynamic int
	// Chunks is the number of chunks currently allocated in the shard's
	// one key table, which grows from 1 up to MaxChunksPerShard with
	// occupancy.
	Chunks int
	// OccupiedChunks is the number of those chunks holding at least one
	// key; MaxChunkKeys is the largest key count of any single chunk —
	// the worst-case copy unit of one write into this shard.
	OccupiedChunks int
	MaxChunkKeys   int
}

// DBStats is a consistent-enough introspection snapshot of the database:
// each shard is read atomically, but shards are read one after another,
// so counts can straddle concurrent writes (fine for monitoring). It is the
// "db" section of /v1/stats as it stands — the JSON tags are the document's
// keys, and /metrics renders the same fields — with per-shard occupancy
// summarized so the payload stays small at 64 shards.
type DBStats struct {
	// Sets and DynamicSets are the database-wide counts of keys holding a
	// plain set and a removable one.
	Sets        int `json:"sets"`
	DynamicSets int `json:"dynamic_sets"`
	// NumShards is the number of key shards, OccupiedShards those holding at
	// least one key and MaxShardKeys the largest key count of any one shard.
	// Shards holds the per-shard occupancy they summarize, indexed by shard
	// number.
	NumShards      int          `json:"shards"`
	OccupiedShards int          `json:"occupied_shards"`
	MaxShardKeys   int          `json:"max_shard_keys"`
	Shards         []ShardStats `json:"-"`
	// MaxChunksPerShard is the cap each shard's persistent key map grows
	// to — the asymptotic denominator of the copy-on-write bound (a
	// write into a saturated shard copies ~keys/MaxChunksPerShard
	// entries, not the whole shard). TotalChunks is the number of chunks
	// currently allocated across all shards, one table per shard; an
	// untouched shard contributes 0, and the total approaches
	// numShards·MaxChunksPerShard as shards saturate. OccupiedChunks counts
	// those holding at least one key and MaxChunkKeys is the largest key
	// count of any one chunk — how evenly the copy units are loaded.
	MaxChunksPerShard int `json:"max_chunks_per_shard"`
	TotalChunks       int `json:"total_chunks"`
	OccupiedChunks    int `json:"occupied_chunks"`
	MaxChunkKeys      int `json:"max_chunk_keys"`
	// StateWrites counts logical write operations applied (Add, Delete,
	// AddDynamic, RemoveDynamic, and each Write of a batch).
	// StatePublishes counts snapshot publishes; group commit makes it
	// smaller than StateWrites (one publish per touched shard per batch).
	// StateBytesCopied is the estimated total bytes copied building
	// successor snapshots (chunk tables plus cloned chunk entries; filter
	// clones are not included — they are payload, not amplification).
	// MeanBytesCopiedPerWrite is StateBytesCopied/StateWrites (0 before the
	// first write) — the headline write-amplification figure.
	StateWrites             uint64  `json:"state_writes"`
	StatePublishes          uint64  `json:"state_publishes"`
	StateBytesCopied        uint64  `json:"state_bytes_copied"`
	MeanBytesCopiedPerWrite float64 `json:"mean_bytes_copied_per_write"`
	// SampleDrawsLost counts the draws of batch samples (SampleMany and
	// its variants) that ended on a false-positive path and produced no
	// id: the sum over all batches of requested − returned. A batch that
	// comes back short is explained here and nowhere else.
	SampleDrawsLost uint64 `json:"sample_draws_lost"`
	// EstimatesComputed counts the intersection estimates the same requests
	// computed, EstimatesRemembered those they read back instead from the
	// estimate index that lives on a filter version (core.EstimateIndex).
	// Remembered ÷ (computed + remembered) is the share of the descent's
	// dominant cost that was not paid.
	EstimatesComputed   uint64 `json:"estimates_computed"`
	EstimatesRemembered uint64 `json:"estimates_remembered"`
	// DrawsWarm counts the draws of those requests that were uniform picks
	// from a filter version's packed positives (core.Positives) — every
	// draw of SampleExactFrom, and SampleManyFrom's once the version has paid
	// for its scan — DrawsDescended those that were descents of the tree,
	// lost ones included: only the second kind reads an estimate, so their
	// share is how much of the sampling traffic the index still serves.
	DrawsWarm      uint64 `json:"draws_warm"`
	DrawsDescended uint64 `json:"draws_descended"`
	// PositivesScans counts the leaf scans filter versions have run to find
	// their positives (one per version, once its draws had tested as many
	// ids as the scan would, or at its first exact draw or served
	// reconstruction; one per such request on a version that declined): a
	// served reconstruction either reads a table kept or is counted here.
	// PositivesDeclined counts those of them that kept nothing because the
	// table outgrew the version's own bytes, PositivesDropped the tables
	// dropped because the pruned tree grew a leaf under them, and
	// PositivesBytes the bytes of every table kept (dropped and garbage ones
	// included: it only grows).
	PositivesScans    uint64 `json:"positives_scans"`
	PositivesDeclined uint64 `json:"positives_declined"`
	PositivesDropped  uint64 `json:"positives_dropped"`
	PositivesBytes    uint64 `json:"positives_bytes"`
	// Generations is the number of key lifetimes ever created (it only
	// grows; Delete does not reclaim it, and a write to an existing key
	// does not move it).
	Generations uint64 `json:"generations"`
	// TreeNodes, TreeDepth, TreePruned and TreeMemoryBytes describe the
	// shared BloomSampleTree.
	TreeNodes       uint64 `json:"tree_nodes"`
	TreeDepth       int    `json:"tree_depth"`
	TreePruned      bool   `json:"tree_pruned"`
	TreeMemoryBytes uint64 `json:"tree_memory_bytes"`
	// GrowthEpoch is the total number of completed growth epochs across
	// all subtrees of a pruned tree (0 for a full tree), SubtreeEpochs the
	// per-stripe breakdown and SubtreeEpochsActive the stripes with at least
	// one. They are the operator's signal that, and how widely, a pruned
	// tree is still growing; nothing is validated against them (a version's
	// index and table check filter stamps and the node count).
	GrowthEpoch         uint64   `json:"growth_epoch"`
	SubtreeEpochsActive uint64   `json:"subtree_epochs_active"`
	SubtreeEpochs       []uint64 `json:"-"`
	// Backend describes the configured dynamic-set membership backend and
	// its realized aggregates.
	Backend BackendStats `json:"backend"`
}

// BackendStats is the per-DB membership-backend descriptor surfaced by
// Stats() and /v1/stats.
type BackendStats struct {
	// Kind is the configured backend of removable sets (plain sets are
	// always "bloom").
	Kind string `json:"kind"`
	// Entries is the total number of live elements across removable sets;
	// MemoryBytes their total resident bytes (tables plus the query views
	// reads have materialized; Stats builds none).
	Entries     uint64 `json:"entries"`
	MemoryBytes uint64 `json:"memory_bytes"`
	// BitsPerEntry is 8·MemoryBytes/Entries (0 with no entries) — the
	// figure the backend bench sweeps compare.
	BitsPerEntry float64 `json:"bits_per_entry"`
}

// Stats returns an introspection snapshot. It is lock-free and safe to
// call at any frequency while readers and writers run.
func (db *DB) Stats() DBStats {
	st := DBStats{
		NumShards:           numShards,
		Shards:              make([]ShardStats, numShards),
		MaxChunksPerShard:   maxChunks,
		StateWrites:         db.stateWrites.Load(),
		StatePublishes:      db.statePublishes.Load(),
		StateBytesCopied:    db.stateBytes.Load(),
		SampleDrawsLost:     db.lostDraws.Load(),
		EstimatesComputed:   db.estimatesComputed.Load(),
		EstimatesRemembered: db.estimatesRemembered.Load(),
		DrawsWarm:           db.drawsWarm.Load(),
		DrawsDescended:      db.drawsDescended.Load(),
		Generations:         db.gen.Load(),
		TreeNodes:           db.tree.Nodes(),
		TreeDepth:           db.tree.Depth(),
		TreePruned:          db.tree.Pruned(),
		TreeMemoryBytes:     db.tree.MemoryBytes(),
		GrowthEpoch:         db.tree.GrowthEpoch(),
		SubtreeEpochs:       db.tree.SubtreeEpochs(),
	}
	if st.StateWrites > 0 {
		st.MeanBytesCopiedPerWrite = float64(st.StateBytesCopied) / float64(st.StateWrites)
	}
	for _, e := range st.SubtreeEpochs {
		if e > 0 {
			st.SubtreeEpochsActive++
		}
	}
	ps := db.tree.PositivesStats()
	st.PositivesScans, st.PositivesDeclined = ps.Scans, ps.Declined
	st.PositivesDropped, st.PositivesBytes = ps.Dropped, ps.PackedBytes
	st.Backend.Kind = string(db.opts.Backend)
	for i := range db.shards {
		snap := db.shards[i].load().sets
		ss := ShardStats{Chunks: snap.numChunks()}
		snap.rangeAll(func(_ string, e entry) {
			if _, ok := e.removable(); !ok {
				ss.Sets++
				return
			}
			ss.Dynamic++
			st.Backend.Entries += e.m.Live()
			st.Backend.MemoryBytes += e.m.SizeBytes()
		})
		for _, chunk := range snap.chunks {
			if n := len(chunk); n > 0 {
				ss.OccupiedChunks++
				if n > ss.MaxChunkKeys {
					ss.MaxChunkKeys = n
				}
			}
		}
		st.Shards[i] = ss
		st.TotalChunks += ss.Chunks
		st.OccupiedChunks += ss.OccupiedChunks
		st.MaxChunkKeys = max(st.MaxChunkKeys, ss.MaxChunkKeys)
		st.Sets += ss.Sets
		st.DynamicSets += ss.Dynamic
		if keys := ss.Sets + ss.Dynamic; keys > 0 {
			st.OccupiedShards++
			st.MaxShardKeys = max(st.MaxShardKeys, keys)
		}
	}
	if st.Backend.Entries > 0 {
		st.Backend.BitsPerEntry = 8 * float64(st.Backend.MemoryBytes) / float64(st.Backend.Entries)
	}
	return st
}
