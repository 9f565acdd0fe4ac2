package setdb

import (
	"fmt"
	"testing"
)

// with is one write through a builder: the successor version with key bound
// to v.
func with(m chunkedMap[int], key string, v int) chunkedMap[int] {
	b := newChunkBuilder(m)
	b.set(keyHash(key), key, v)
	return b.freeze()
}

// TestChunkedMapAdaptiveGrowth pins the growth schedule: a table starts
// at one chunk, doubles when average occupancy crosses chunkGrowKeys,
// never exceeds maxChunks, and every stored key remains reachable across
// rehashes.
func TestChunkedMapAdaptiveGrowth(t *testing.T) {
	var m chunkedMap[int]
	if m.numChunks() != 0 || m.len() != 0 {
		t.Fatalf("zero value: chunks=%d len=%d", m.numChunks(), m.len())
	}
	const n = 3 * chunkGrowKeys
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		m = with(m, keys[i], i)

		nc := m.numChunks()
		if nc&(nc-1) != 0 || nc < 1 || nc > maxChunks {
			t.Fatalf("after %d inserts: %d chunks, want a power of two in [1,%d]", i+1, nc, maxChunks)
		}
		if count := i + 1; count <= chunkGrowKeys && nc != 1 {
			t.Fatalf("grew to %d chunks at %d keys, threshold is %d", nc, count, chunkGrowKeys)
		} else if count > chunkGrowKeys && nc*chunkGrowKeys < count && nc < maxChunks {
			t.Fatalf("%d keys overflow %d chunks without growing", count, nc)
		}
	}
	if m.len() != n {
		t.Fatalf("len = %d, want %d", m.len(), n)
	}
	for i, k := range keys {
		if v, ok := m.get(keyHash(k), k); !ok || v != i {
			t.Fatalf("get(%q) = (%d,%v) after growth, want (%d,true)", k, v, ok, i)
		}
	}

	// Removal keeps the table size (never shrink) and the remaining keys.
	b := newChunkBuilder(m)
	if ok := b.delete(keyHash(keys[0]), keys[0]); !ok || b.bytes == 0 {
		t.Fatalf("delete: ok=%v bytes=%d", ok, b.bytes)
	}
	m2 := b.freeze()
	if m2.numChunks() != m.numChunks() {
		t.Fatalf("table shrank %d -> %d on removal", m.numChunks(), m2.numChunks())
	}
	if _, ok := m2.get(keyHash(keys[0]), keys[0]); ok {
		t.Fatal("removed key still reachable")
	}
	if _, ok := m.get(keyHash(keys[0]), keys[0]); !ok {
		t.Fatal("removal mutated the predecessor version")
	}
}

// TestChunkBuilderDelete pins the group-commit removal primitive: deletes
// clone the touched chunk once, observe earlier writes in the batch, and
// report misses.
func TestChunkBuilderDelete(t *testing.T) {
	var m chunkedMap[int]
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("key-%d", i)
		m = with(m, k, i)
	}
	b := newChunkBuilder(m)
	if table := b.bytes; b.delete(keyHash("nope"), "nope") || b.bytes != table {
		t.Fatalf("delete of absent key reported true or copied %d bytes beyond the table", b.bytes-table)
	}
	b.set(keyHash("fresh"), "fresh", 99)
	if !b.delete(keyHash("fresh"), "fresh") {
		t.Fatal("delete did not observe earlier write in the batch")
	}
	if !b.delete(keyHash("key-3"), "key-3") {
		t.Fatal("delete of stored key reported false")
	}
	out := b.freeze()
	if out.len() != 9 {
		t.Fatalf("len = %d, want 9", out.len())
	}
	if _, ok := out.get(keyHash("key-3"), "key-3"); ok {
		t.Fatal("deleted key still reachable")
	}
	if _, ok := m.get(keyHash("key-3"), "key-3"); !ok {
		t.Fatal("builder delete mutated the source version")
	}
}

// TestAdaptiveChunkBytesSmallShard pins the point of adaptive layout: a
// write into a lightly loaded shard must copy less than the fixed-256
// design's table clone alone (2 KB), because the table has not fanned
// out yet.
func TestAdaptiveChunkBytesSmallShard(t *testing.T) {
	db, err := Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Collect keys that all land in shard 0, holding it at 16 keys.
	var keys []string
	for i := 0; len(keys) < 16; i++ {
		k := fmt.Sprintf("skey-%d", i)
		if ShardOf(k) == 0 {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		if err := db.Add(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	before := db.Stats()
	const writes = 8
	for i := 0; i < writes; i++ {
		if err := db.Add(keys[i], uint64(2+i)); err != nil {
			t.Fatal(err)
		}
	}
	after := db.Stats()
	perWrite := (after.StateBytesCopied - before.StateBytesCopied) / writes
	if fixed := tableCopyBytes(maxChunks); perWrite >= fixed {
		t.Fatalf("write into a 16-key shard copies %d B, want < the fixed-256 table clone alone (%d B)", perWrite, fixed)
	}
	if st := after.Shards[0]; st.Chunks >= 2*maxChunks {
		t.Fatalf("small shard reports %d chunks", st.Chunks)
	}
}
