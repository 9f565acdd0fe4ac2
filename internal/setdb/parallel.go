package setdb

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/bloom"
	"repro/internal/core"
)

// Batch read APIs. These exploit the wait-free read path: stored filters
// are immutable versions published through atomic shard snapshots and
// the tree is never mutated in place, so the workers below run genuinely
// in parallel, each with its own sampleWorker and Ops accumulator, all
// sharing the same stored filter and the request's core.Memo — whose lock
// covers a table lookup, never a computation, and is the only one taken.

// SampleMany draws n samples from the set under key using up to
// GOMAXPROCS goroutines. The samples follow the same per-sample
// distribution as n repeated Sample calls; their order is unspecified.
// Fewer than n results means some descents ended on false-positive paths
// (the per-call ErrNoSample); an empty result for a present key is
// possible only for an (almost) empty filter. A missing key returns an
// error wrapping ErrNoSet; any other tree error aborts the batch and is
// returned alongside the samples drawn so far.
func (db *DB) SampleMany(key string, n int) ([]uint64, error) {
	return db.SampleManyWorkers(key, n, 0, nil)
}

// SampleManyWorkers is SampleMany with an explicit worker count (0 means
// GOMAXPROCS) and an optional Ops accumulator that receives the summed
// operation counts of all workers.
func (db *DB) SampleManyWorkers(key string, n, workers int, ops *core.Ops) ([]uint64, error) {
	// Load the published filter version once: it is immutable, so the
	// whole batch shares it directly — no clone, no lock, and a
	// consistent view for free (concurrent Adds to the key publish new
	// versions that apply to the next batch, not halfway through this
	// one). A missing key errors even for n <= 0, so the batch API
	// always validates key existence.
	e, ok := db.getSet(key)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrNoSet, key)
	}
	return db.sampleManyFilter(e.f.QueryView(), n, workers, ops)
}

// SampleManyDynamic is SampleManyWorkers for a dynamic set: the batch
// runs against one immutable point-in-time snapshot of the counting
// filter, so concurrent RemoveDynamic calls never yield a half-updated
// view partway through the batch.
func (db *DB) SampleManyDynamic(key string, n, workers int, ops *core.Ops) ([]uint64, error) {
	snap, err := db.SnapshotDynamic(key)
	if err != nil {
		return nil, err
	}
	return db.sampleManyFilter(snap, n, workers, ops)
}

// SampleManyFrom draws n samples from one caller-held immutable filter
// version (obtained from Filter or SnapshotDynamic). It is the hook for
// callers that spread one logical batch over several calls — chunked
// streaming, pagination — and need every chunk drawn from the same
// point-in-time version regardless of concurrent writes.
func (db *DB) SampleManyFrom(f *bloom.Filter, n, workers int, ops *core.Ops) ([]uint64, error) {
	if f == nil {
		return nil, fmt.Errorf("%w (nil filter)", ErrNoSet)
	}
	return db.sampleManyFilter(f, n, workers, ops)
}

// sampleWorker is what one goroutine of a batch draws with. Workers are
// pooled because seeding a math/rand source (607 words, ≈ 12 µs) per
// worker per request cost more than the rest of the fan-out together; each
// rng is seeded once, from the global source, when the pool creates it.
// What the draws of a request learn about the tree is not a worker's to
// keep: it sits in the request's memo, which every worker is handed.
type sampleWorker struct {
	rng     *rand.Rand
	scratch []uint64 // leaf-scan hits, threaded through every draw
}

var sampleWorkers = sync.Pool{New: func() any {
	return &sampleWorker{
		rng:     rand.New(rand.NewSource(rand.Int63())),
		scratch: make([]uint64, 0, core.ScratchHint),
	}
}}

// requestMemos pools the child-estimate memos, one per request in flight,
// so a request finds the table and the entry slab of an earlier one.
var requestMemos = sync.Pool{New: func() any { return new(core.Memo) }}

// getMemo returns the memo the workers of one request of n draws share: the
// query filter is pinned and immutable, so the draws after the first
// mostly read the child estimates back, and the request pays for as many
// estimates as it touches distinct tree nodes, whatever its worker count.
// A single draw has nothing to share and gets nil. putMemo takes the memo
// back once every worker has returned; nothing remembered outlives the
// request.
func getMemo(n int) *core.Memo {
	if n <= 1 {
		return nil
	}
	return requestMemos.Get().(*core.Memo)
}

func putMemo(memo *core.Memo) {
	if memo != nil {
		memo.Reset()
		requestMemos.Put(memo)
	}
}

// draw is a whole request on one worker: drawShared under a memo of its own.
func (w *sampleWorker) draw(tree *core.Tree, f *bloom.Filter, quota int, ops *core.Ops, out []uint64) (_ []uint64, lost int, err error) {
	memo := getMemo(quota)
	defer putMemo(memo)
	return w.drawShared(tree, f, quota, ops, out, memo)
}

// drawShared makes quota independent root-to-leaf draws from f through the
// request's memo (nil for none), appending the ids to out and returning how
// many draws were lost to false-positive paths (core.ErrNoSample). Any
// other tree error ends the worker's share. The ids are exactly what quota
// SampleScratch calls on the same rng would return. The draw loop itself
// allocates nothing.
func (w *sampleWorker) drawShared(tree *core.Tree, f *bloom.Filter, quota int, ops *core.Ops, out []uint64, memo *core.Memo) (_ []uint64, lost int, err error) {
	for i := 0; i < quota; i++ {
		var x uint64
		x, w.scratch, err = tree.SampleMemo(f, w.rng, ops, w.scratch, memo)
		if err == core.ErrNoSample {
			lost++
			continue
		}
		if err != nil {
			return out, lost, err
		}
		out = append(out, x)
	}
	return out, lost, nil
}

// sampleManyFilter draws n samples from one immutable filter with up to
// workers goroutines (0 means GOMAXPROCS); a one-worker batch runs on the
// caller's. Draws lost to false-positive paths are counted in the
// database's SampleDrawsLost.
func (db *DB) sampleManyFilter(f *bloom.Filter, n, workers int, ops *core.Ops) ([]uint64, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]uint64, 0, n)
	if workers == 1 {
		w := sampleWorkers.Get().(*sampleWorker)
		out, lost, err := w.draw(db.tree, f, n, ops, out)
		sampleWorkers.Put(w)
		db.recordLostDraws(lost)
		return out, err
	}

	// Each worker fills its own quota-sized window of out; the windows are
	// closed up afterwards, since a worker may return fewer than its quota.
	type result struct {
		xs   []uint64
		lost int
		ops  core.Ops
		err  error
	}
	results := make([]result, workers)
	memo := getMemo(n)
	var wg sync.WaitGroup
	start := 0
	for w := 0; w < workers; w++ {
		quota := n / workers
		if w < n%workers {
			quota++
		}
		res, window := &results[w], out[start:start:start+quota]
		start += quota
		wg.Add(1)
		go func() {
			defer wg.Done()
			var wops *core.Ops
			if ops != nil {
				wops = &res.ops
			}
			sw := sampleWorkers.Get().(*sampleWorker)
			res.xs, res.lost, res.err = sw.drawShared(db.tree, f, quota, wops, window, memo)
			sampleWorkers.Put(sw)
		}()
	}
	wg.Wait()
	putMemo(memo)

	var firstErr error
	lost := 0
	for i := range results {
		out = append(out, results[i].xs...)
		lost += results[i].lost
		if ops != nil {
			ops.Add(results[i].ops)
		}
		if firstErr == nil {
			firstErr = results[i].err
		}
	}
	db.recordLostDraws(lost)
	return out, firstErr
}

// recordLostDraws adds one batch's lost draws to the database's count,
// leaving the shared counter alone on the usual batch that lost none.
func (db *DB) recordLostDraws(lost int) {
	if lost > 0 {
		db.lostDraws.Add(uint64(lost))
	}
}

// ReconstructAll reconstructs every plain set in the database using up to
// workers goroutines (0 means GOMAXPROCS), returning key → reconstructed
// set. Keys deleted while the scan runs are silently skipped. Each
// reconstruction is read-only, so the workers proceed without serializing
// against concurrent samplers.
func (db *DB) ReconstructAll(rule core.PruneRule, workers int) (map[string][]uint64, error) {
	keys := db.Keys()
	if len(keys) == 0 {
		return map[string][]uint64{}, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(keys) {
		workers = len(keys)
	}

	var (
		mu       sync.Mutex
		out      = make(map[string][]uint64, len(keys))
		next     = make(chan string)
		wg       sync.WaitGroup
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range next {
				set, rerr := db.Reconstruct(key, rule, nil)
				if errors.Is(rerr, ErrNoSet) {
					continue // key deleted mid-scan
				}
				if rerr != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = rerr
					}
					mu.Unlock()
					continue
				}
				mu.Lock()
				out[key] = set
				mu.Unlock()
			}
		}()
	}
	for _, key := range keys {
		next <- key
	}
	close(next)
	wg.Wait()
	return out, firstErr
}
