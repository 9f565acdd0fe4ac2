package setdb

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/bloom"
	"repro/internal/core"
)

// Batch read APIs. These exploit the wait-free read path: stored filters
// are immutable versions loaded from the key map without a lock and
// the tree is never mutated in place, so concurrent requests draw without
// a lock, each on its own goroutine with its own pooled sampleWorker, all
// sharing the same stored filter and what is remembered about it: the
// filter's core.Version, which hangs on the filter itself, outlives the
// request and is read without a lock — its positives once it has paid for
// them, its estimate index until then. What a draw is served from, and when
// a version scans, is core's to decide (Tree.SampleVersion, Version.Exact);
// a served reconstruction is the version's whole table of positives
// (PositivesFrom), paid for at its first request. This file pins and
// counts.

// SampleMany draws n samples from the set under key, on the caller's
// goroutine. A filter version that has not yet spent a scan's worth of
// draws is sampled by n independent descents, each distributed as a Sample
// call; from then on by n exactly uniform picks among the version's
// positives (sampleManyFilter). Fewer than n results means some descents
// ended on false-positive paths (the per-call ErrNoSample); an empty result
// for a present key is possible only for an (almost) empty filter. A
// missing key returns an error wrapping ErrNoSet; any other tree error
// aborts the batch and is returned alongside the samples drawn so far.
func (db *DB) SampleMany(key string, n int) ([]uint64, error) {
	// Load the published version once: it is immutable, so the whole
	// batch shares it directly — no clone, no lock, and a consistent view
	// for free (concurrent adds to or removes from the key publish new
	// versions that apply to the next batch, not halfway through this
	// one). A missing key errors even for n <= 0, so the batch API
	// always validates key existence.
	m, err := db.get(key)
	if err != nil {
		return nil, err
	}
	return db.sampleManyFilter(m.QueryView(), n, nil)
}

// SampleManyFrom draws n samples from one caller-held immutable filter
// version (obtained from Filter), on the caller's goroutine. It is the hook
// for callers that spread one logical batch over several calls — chunked
// streaming, pagination — and need every chunk drawn from the same
// point-in-time version regardless of concurrent writes. A non-nil ops
// receives the batch's operation counts and keeps it on the descent.
// workers is ignored.
func (db *DB) SampleManyFrom(f *bloom.Filter, n, workers int, ops *core.Ops) ([]uint64, error) {
	if f == nil {
		return nil, fmt.Errorf("%w (nil filter)", ErrNoSet)
	}
	return db.sampleManyFilter(f, n, ops)
}

// AppendReconstructFrom appends to dst the reconstruction of one caller-held
// immutable filter version (obtained from Filter): every id of the tree's
// leaves the version answers for, ascending — §6's S ∪ S(B), every stored id
// among them. That is the version's table of positives (PositivesFrom),
// unpacked. On an error dst comes back as it was.
func (db *DB) AppendReconstructFrom(dst []uint64, f *bloom.Filter) ([]uint64, error) {
	p, err := db.PositivesFrom(f)
	if err != nil {
		return dst, err
	}
	return p.AppendAll(dst), nil
}

// SampleExactFrom draws n exactly uniform samples (with replacement) from one
// caller-held immutable filter version (obtained from Filter), whatever the
// key's backend: n picks from the version's packed positives
// (core.Version.Exact), which a version that has not scanned for them yet pays
// for here, once — so the draws are exact from the version's first, where
// SampleManyFrom's are Algorithm 1's until the version has served a scan's
// worth. Fewer than n results — none — means the version answers for no id
// of any leaf.
func (db *DB) SampleExactFrom(f *bloom.Filter, n int) ([]uint64, error) {
	if n <= 0 {
		return nil, db.checkFilter(f)
	}
	p, err := db.PositivesFrom(f)
	if err != nil {
		return nil, err
	}
	return db.pickFrom(p, n), nil
}

// checkFilter refuses a nil filter version and one of another hash family.
func (db *DB) checkFilter(f *bloom.Filter) error {
	if f == nil {
		return fmt.Errorf("%w (nil filter)", ErrNoSet)
	}
	return f.MatchesFamily(db.fam)
}

// PositivesFrom returns the packed positives of one caller-held immutable
// filter version (obtained from Filter) on the database's tree
// (core.Version.Exact): every id of the tree's leaves the version answers
// for, which a version that has not scanned for them yet pays for here, once,
// as SampleExactFrom's first draw does. Every later call on the version gets
// the same table back for as long as the version keeps it — a caller may
// hang what it derives from the table on it (core.Positives.AttachDerived).
func (db *DB) PositivesFrom(f *bloom.Filter) (*core.Positives, error) {
	if err := db.checkFilter(f); err != nil {
		return nil, err
	}
	p := db.tree.VersionFor(f).Exact()
	if p == nil {
		return nil, errors.New("setdb: the filter has no version on this tree to read its positives from")
	}
	return p, nil
}

// pickFrom makes n picks from the packed positives p on a pooled worker
// (sampleWorker.pick) and counts them as n warm draws, all lost when p is
// empty.
func (db *DB) pickFrom(p *core.Positives, n int) []uint64 {
	w := sampleWorkers.Get().(*sampleWorker)
	out := w.pick(p, n, make([]uint64, 0, n))
	sampleWorkers.Put(w)
	db.recordDraws(n, n-len(out), core.Ops{Picked: uint64(n)})
	return out
}

// sampleWorker is what a batch draws with. Workers are pooled because
// seeding a math/rand source (607 words, ≈ 12 µs) per request would cost
// more than a warm request's picks together; each rng is seeded once, from
// the global source, when the pool creates it. What the draws of a request
// learn about the tree is not a worker's to keep: it sits on the filter
// version, which the worker is handed.
type sampleWorker struct {
	rng     *rand.Rand
	scratch []uint64 // leaf-scan hits, threaded through every draw
	// What the worker's latest batch cost and where it was served from, left
	// for whoever ran it to add to the database's counters.
	tally core.Ops
}

var sampleWorkers = sync.Pool{New: func() any {
	return &sampleWorker{
		rng:     rand.New(rand.NewSource(rand.Int63())),
		scratch: make([]uint64, 0, core.ScratchHint),
	}
}}

// draw makes n independent draws from f through its version on tree
// (core.Tree.SampleVersion: picks from the version's positives once it has
// them, descents that read its index and pay it until then — this worker's
// payment may be the one that scans), appending the ids to out and returning
// how many draws were lost (core.ErrNoSample: a false-positive path, or a
// version with no positive to pick). Any other tree error ends the batch. A
// caller that passes ops gets n descents: the ids are exactly what n
// SampleScratch calls on the same rng would return. The draw loop itself
// allocates nothing.
func (w *sampleWorker) draw(tree *core.Tree, f *bloom.Filter, n int, ops *core.Ops, out []uint64) (_ []uint64, lost int, err error) {
	v := tree.VersionFor(f)
	w.tally = core.Ops{}
	for i := 0; i < n && err == nil; i++ {
		var x uint64
		x, w.scratch, err = tree.SampleVersion(f, w.rng, ops, w.scratch, v, &w.tally)
		switch err {
		case nil:
			out = append(out, x)
		case core.ErrNoSample:
			lost++
			err = nil
		}
	}
	return out, lost, err
}

// pick appends n exactly uniform picks (with replacement) from the packed
// positives p to out, none when p is empty: the ids, and the rng consumed, of
// n Tree.SampleVersion calls served from p.
func (w *sampleWorker) pick(p *core.Positives, n int, out []uint64) []uint64 {
	if p.Len() > 0 {
		for range n {
			out = append(out, p.Select(w.rng.Intn(p.Len())))
		}
	}
	return out
}

// sampleManyFilter draws n samples from one immutable filter on the
// caller's goroutine. A batch on a version that has its positives is n
// picks (pickFrom) from the table looked up once for the request: a table
// the tree's growth drops while they run is dropped from the next request
// on. A caller that counts ops always descends. Draws lost to
// false-positive paths, the estimates the request computed and read back,
// and how many of its draws were picks and how many descents, are counted
// in the database's Stats.
func (db *DB) sampleManyFilter(f *bloom.Filter, n int, ops *core.Ops) ([]uint64, error) {
	if n <= 0 {
		return nil, nil
	}
	if ops == nil {
		if p := db.tree.VersionFor(f).Positives(); p != nil {
			return db.pickFrom(p, n), nil
		}
	}
	w := sampleWorkers.Get().(*sampleWorker)
	out, lost, err := w.draw(db.tree, f, n, ops, make([]uint64, 0, n))
	db.recordDraws(n, lost, w.tally)
	sampleWorkers.Put(w)
	return out, err
}

// recordDraws adds one request of n draws to the database's counts — the
// draws it lost, the estimates it computed and read back, and how many of
// the n were picks from a version's positives (the rest were descents):
// once per request, and leaving a shared counter alone where the request has
// nothing to add — a request on a version that has its positives touches one
// counter, the usual descending batch loses no draw and on a version whose
// index is full computes nothing.
func (db *DB) recordDraws(n, lost int, tally core.Ops) {
	addSome(&db.lostDraws, uint64(lost))
	addSome(&db.estimatesComputed, tally.Intersections)
	addSome(&db.estimatesRemembered, tally.Remembered)
	addSome(&db.drawsWarm, tally.Picked)
	addSome(&db.drawsDescended, uint64(n)-tally.Picked)
}

// addSome adds d to a shared counter, which it leaves alone when d is 0.
func addSome(c *atomic.Uint64, d uint64) {
	if d > 0 {
		c.Add(d)
	}
}
