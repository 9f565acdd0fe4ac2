package setdb

// Introspection: a point-in-time view of the database's shape — key
// counts, writes, tree growth, memory — for operational surfaces (the
// bstserved /v1/stats endpoint, debugging, capacity planning). All of it
// reads the key map as the query path does, without the writer mutex, so
// calling Stats on a hot database disturbs nothing.

import "repro/internal/membership"

// DBStats is a consistent-enough introspection snapshot of the database:
// each key's value is read atomically, but keys are read one after another,
// so counts can straddle concurrent writes (fine for monitoring). It is the
// "db" section of /v1/stats as it stands — the JSON tags are the document's
// keys, and /metrics renders the same fields.
type DBStats struct {
	// Sets and DynamicSets are the database-wide counts of keys holding a
	// plain set and a removable one.
	Sets        int `json:"sets"`
	DynamicSets int `json:"dynamic_sets"`
	// StateWrites counts logical write operations applied (Add, Delete,
	// AddDynamic, RemoveDynamic, and each Write of a batch); a batch that
	// fails counts none.
	StateWrites uint64 `json:"state_writes"`
	// StateBytesCopied reads 0: no write copies key-map state.
	//
	// Deprecated: kept for bench/.
	StateBytesCopied uint64 `json:"-"`
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
	// GrowthEpoch is the number of batches a pruned tree has grown by (0
	// for a full tree): the operator's signal that it is still growing.
	// Nothing is validated against it (a version's index and table check
	// filter stamps and the node count).
	GrowthEpoch uint64 `json:"growth_epoch"`
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

// Stats returns an introspection snapshot. It takes no lock of the
// database's and is safe to call at any frequency while readers and
// writers run.
func (db *DB) Stats() DBStats {
	st := DBStats{
		StateWrites:         db.stateWrites.Load(),
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
	}
	ps := db.tree.PositivesStats()
	st.PositivesScans, st.PositivesDeclined = ps.Scans, ps.Declined
	st.PositivesDropped, st.PositivesBytes = ps.Dropped, ps.PackedBytes
	st.Backend.Kind = string(db.opts.Backend)
	db.sets.Range(func(_, v any) bool {
		m := v.(membership.Membership)
		if _, ok := m.(membership.DynamicMembership); !ok {
			st.Sets++
			return true
		}
		st.DynamicSets++
		st.Backend.Entries += m.Live()
		st.Backend.MemoryBytes += m.SizeBytes()
		return true
	})
	if st.Backend.Entries > 0 {
		st.Backend.BitsPerEntry = 8 * float64(st.Backend.MemoryBytes) / float64(st.Backend.Entries)
	}
	return st
}
