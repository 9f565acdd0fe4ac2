package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/hashfam"
	"repro/internal/membership"
	"repro/internal/server"
	"repro/internal/setdb"
	"repro/internal/wal"
	"repro/internal/wire"
)

// sink keeps results alive so that the compiler cannot drop a timed call.
var sink uint64

// layerEnv is the in-process twin of a workload's server: the same database
// built from the same generated inputs, opened layer by layer so that each
// layer's public functions can be called, and timed, from outside.
type layerEnv struct {
	w   workload
	cfg runConfig
	tr  *tracer
	res *workloadResult
	dir string

	ds     *dataset
	db     *setdb.DB
	tree   *core.Tree
	fam    hashfam.Family
	views  []*bloom.Filter // per key, the query filter a read request resolves to
	nodes  []*bloom.Filter // per tree level, what the leftmost node's filter holds
	keySeq []int           // keys of the read requests, in the generator's order
	split  int             // goroutines one sample request's draws are split over

	ledger  []ledgerRow
	cleanup []func() // run in reverse when the traced run ends
}

// metric adds one per-layer row.
func (e *layerEnv) metric(name string, value float64, samples int) {
	e.res.add(name, perLayerUnit(name), value, samples, nil)
}

func planDB(w workload) (*setdb.DB, error) {
	opts, err := setdb.PlanOptions(accuracy, w.setSize, w.namespace, hashK)
	if err != nil {
		return nil, err
	}
	opts.Pruned = true
	opts.Backend = membership.KindCounting
	return setdb.Open(opts)
}

// load ingests a dataset in the batches the end-to-end set-up sends.
func load(apply func([]setdb.Write) error, ds *dataset, dynamic bool) error {
	return ingestBatches(ds, func(lo, hi int) error {
		batch := make([]setdb.Write, 0, hi-lo)
		for k := lo; k < hi; k++ {
			batch = append(batch, setdb.Write{Key: ds.keys[k], IDs: ds.ids[k], Dynamic: dynamic})
		}
		return apply(batch)
	})
}

func newLayerEnv(w workload, cfg runConfig, tr *tracer, res *workloadResult) (*layerEnv, error) {
	e := &layerEnv{w: w, cfg: cfg, tr: tr, res: res, dir: filepath.Join(outDir, "trace-"+w.name)}
	if err := os.RemoveAll(e.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	e.ds = generate(w, cfg.seed)
	var err error
	if e.db, err = planDB(w); err != nil {
		return nil, err
	}
	if err := load(e.db.ApplyBatch, e.ds, w.wal); err != nil {
		return nil, err
	}
	e.tree = e.db.Tree()
	e.fam = e.tree.Family()
	for _, key := range e.ds.keys {
		v := e.db.Filter(key)
		if w.wal {
			if v, err = e.db.SnapshotDynamic(key); err != nil {
				return nil, err
			}
		}
		e.views = append(e.views, v)
	}

	// The tree is pruned to the occupied ids, so the node met at level l on
	// the leftmost path holds the occupied ids below M/2^l. Node filters are
	// private to core; these stand in for them when a descent's intersection
	// estimates are replayed.
	occupied := newBitmap(w.namespace)
	for _, t := range e.ds.truth {
		for i, word := range t {
			occupied[i] |= word
		}
	}
	for l := 1; l <= max(e.tree.Depth(), 1); l++ {
		var ids []uint64
		for x := uint64(0); x < w.namespace>>l; x++ {
			if occupied.has(x) {
				ids = append(ids, x)
			}
		}
		e.nodes = append(e.nodes, bloom.NewFromElements(e.fam, ids))
	}

	read := w
	if read.kind == opAdd {
		read.kind = opSample
	}
	st := newOpStream(read, e.ds, cfg.seed, 0, 1)
	for i := 0; i < max(w.traceDraws, w.traceReqs, w.traceRecon); i++ {
		e.keySeq = append(e.keySeq, st.next().key)
	}
	e.split = min(runtime.GOMAXPROCS(0), w.batch)
	return e, nil
}

// allocsPer runs fn once and returns the heap allocations per unit of work.
func allocsPer(units int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(units)
}

// layer is one layer's share of the traced run. step does repetition r of the
// layer's fixed work, every timed call a span; report turns the spans into
// metric rows. The repetitions of all layers are interleaved (see runTraced),
// so the seven timings behind a number are spread over the whole run and a
// slow spell of the box cannot cover them all.
type layer struct {
	step   func(r int) error
	report func() error
}

// blocks64 walks the 64-key blocks of consecutive ids a leaf scan probes.
type blocks64 struct {
	namespace uint64
	xs        []uint64
}

func newBlocks64(namespace uint64) *blocks64 {
	return &blocks64{namespace: namespace, xs: make([]uint64, 64)}
}

func (b *blocks64) block(i int) []uint64 {
	base := uint64(i*64) % (b.namespace - 64)
	for j := range b.xs {
		b.xs[j] = base + uint64(j)
	}
	return b.xs
}

// primitives times hashfam, bitset and bloom on the workload's (m, k): the
// 64-key blocks a leaf scan hashes and probes, and the m-bit AND-popcount
// behind every intersection estimate.
func (e *layerEnv) primitives() layer {
	const blocks, calls, clones = 256, 2048, 64
	k := e.fam.K()
	q := e.views[e.keySeq[0]]
	bits := q.Bits()
	bl := newBlocks64(e.w.namespace)
	out := make([]bool, 64)
	pos := make([]uint64, 0, 64*k)
	var scratch []uint64
	all := make([]uint64, 0, blocks*64*k)
	for b := 0; b < blocks; b++ {
		all = hashfam.PositionsMany(e.fam, bl.block(b), all)
	}
	fresh := e.freshIDs(0, 4)
	step := func(r int) error {
		e.tr.do("hashfam.positions", -1, r, blocks*64, func() {
			for b := 0; b < blocks; b++ {
				pos = hashfam.PositionsMany(e.fam, bl.block(b), pos[:0])
			}
			sink += pos[0]
		})
		e.tr.do("bitset.testall", -1, r, blocks*64, func() {
			for i := 0; i+k <= len(all); i += k {
				if bits.TestAll(all[i : i+k]) {
					sink++
				}
			}
		})
		e.tr.do("bitset.andcount", -1, r, calls, func() {
			for i := 0; i < calls; i++ {
				sink += e.nodes[i%len(e.nodes)].Bits().AndCount(bits)
			}
		})
		e.tr.do("bloom.contains_batch", -1, r, blocks*64, func() {
			for b := 0; b < blocks; b++ {
				scratch = q.ContainsBatch(bl.block(b), out, scratch)
			}
		})
		e.tr.do("bloom.intersection_estimate", -1, r, calls, func() {
			for i := 0; i < calls; i++ {
				sink += uint64(bloom.EstimateIntersectionOf(e.nodes[i%len(e.nodes)], q))
			}
		})
		e.tr.do("bloom.clone_add", -1, r, clones*len(fresh), func() {
			for i := 0; i < clones; i++ {
				sink += q.CloneAdd(fresh...).Insertions()
			}
		})
		return nil
	}
	report := func() error {
		e.metric("hashfam.positions_ns_per_key", e.tr.min("hashfam.positions"), reps)
		e.metric("bitset.testall_ns_per_probe", e.tr.min("bitset.testall"), reps)
		e.metric("bitset.andcount_ns_per_call", e.tr.min("bitset.andcount"), reps)
		e.metric("bitset.andcount_bytes_per_call", float64(2*bits.SizeBytes()), 1)
		e.metric("bloom.contains_batch_ns_per_key", e.tr.min("bloom.contains_batch"), reps)
		e.metric("bloom.intersection_estimate_ns_per_call", e.tr.min("bloom.intersection_estimate"), reps)
		e.metric("bloom.clone_add_ns_per_id", e.tr.min("bloom.clone_add"), reps)
		return nil
	}
	return layer{step, report}
}

// freshIDs returns n ids key does not hold.
func (e *layerEnv) freshIDs(key, n int) []uint64 {
	var ids []uint64
	for x := uint64(0); len(ids) < n; x++ {
		if !e.ds.truth[key].has(x) {
			ids = append(ids, x)
		}
	}
	return ids
}

// membershipLayer times the counting backend's copy-on-write step and the
// query-view projection a sample needs after it: the first QueryView of a
// new version rebuilds the bit vector from the counters (miss), the second
// finds it memoised (hit).
func (e *layerEnv) membershipLayer() (layer, error) {
	const clones = 32
	held := e.ds.ids[0][:4]
	fresh := e.freshIDs(0, 4)
	dm, err := membership.NewDynamicWith(membership.KindCounting, e.fam, 0, e.ds.ids[0])
	if err != nil {
		return layer{}, err
	}
	versions := make([]membership.DynamicMembership, clones)
	step := func(r int) (err error) {
		e.tr.do("membership.clone_add", -1, r, clones*len(fresh), func() {
			for i := range versions {
				versions[i] = dm.CloneAddDynamic(fresh...)
			}
		})
		view := func() {
			for _, v := range versions {
				sink += v.QueryView().M()
			}
		}
		e.tr.do("membership.query_view_miss", -1, r, clones, view)
		e.tr.do("membership.query_view_hit", -1, r, clones, view)
		e.tr.do("membership.clone_remove", -1, r, clones*len(held), func() {
			for i := 0; i < clones && err == nil; i++ {
				versions[i], err = dm.CloneRemove(held...)
			}
		})
		return err
	}
	report := func() error {
		e.metric("membership.clone_add_ns_per_id", e.tr.min("membership.clone_add"), reps)
		e.metric("membership.clone_remove_ns_per_id", e.tr.min("membership.clone_remove"), reps)
		e.metric("membership.query_view_miss_ns_per_call", e.tr.min("membership.query_view_miss"), reps)
		e.metric("membership.query_view_hit_ns_per_call", e.tr.min("membership.query_view_hit"), reps)
		return nil
	}
	return layer{step, report}, nil
}

// replay re-runs, outside core, the calls into bloom, bitset and hashfam
// that core.Ops counted for some piece of core work: ops.Intersections
// estimates against the stand-in node filters, and ops.Memberships leaf
// probes in 64-key blocks. parent is the span of the core work; the returned
// numbers are the nanoseconds of the bloom level and of the bitset+hashfam
// level beneath it. The work was units draws or requests, each against the
// query filter of its own key, and the replay keeps that: call i of c runs
// against the filter of unit i*units/c, so a filter stays as warm in the
// cache as it was for the descent.
func (e *layerEnv) replay(prefix string, parent, r, units int, ops core.Ops) (bloomNS, leafNS float64) {
	k := e.fam.K()
	blocks := int(ops.Memberships+63) / 64
	calls := int(ops.Intersections)
	bl := newBlocks64(e.w.namespace)
	out := make([]bool, 64)
	pos := make([]uint64, 0, 64*k)
	var scratch []uint64
	q := func(i, of int) *bloom.Filter { return e.views[e.keySeq[(i*units/max(of, 1))%len(e.keySeq)]] }

	est := e.tr.do(prefix+"/bloom.intersection_estimate", parent, r, calls, func() {
		for i := 0; i < calls; i++ {
			sink += uint64(bloom.EstimateIntersectionOf(e.nodes[i%len(e.nodes)], q(i, calls)))
		}
	})
	cont := e.tr.do(prefix+"/bloom.contains_batch", parent, r, blocks*64, func() {
		for b := 0; b < blocks; b++ {
			scratch = q(b, blocks).ContainsBatch(bl.block(b), out, scratch)
		}
	})
	and := e.tr.do(prefix+"/bitset.andcount", est, r, calls, func() {
		for i := 0; i < calls; i++ {
			sink += e.nodes[i%len(e.nodes)].Bits().AndCount(q(i, calls).Bits())
		}
	})
	hash := e.tr.do(prefix+"/hashfam.positions", cont, r, blocks*64, func() {
		for b := 0; b < blocks; b++ {
			pos = hashfam.PositionsMany(e.fam, bl.block(b), pos[:0])
		}
	})
	// One block of positions probed over and over: TestAll's cost does not
	// depend on which positions it is handed, only on how soon a clear bit
	// ends the probe, and consecutive ids are what a leaf scan probes.
	pos = hashfam.PositionsMany(e.fam, bl.block(0), pos[:0])
	test := e.tr.do(prefix+"/bitset.testall", cont, r, blocks*64, func() {
		for b := 0; b < blocks; b++ {
			bits := q(b, blocks).Bits()
			for i := 0; i+k <= len(pos); i += k {
				if bits.TestAll(pos[i : i+k]) {
					sink++
				}
			}
		}
	})
	return e.tr.dur(est) + e.tr.dur(cont), e.tr.dur(and) + e.tr.dur(hash) + e.tr.dur(test)
}

// coreLayer times the tree: single draws as the server makes them, the
// paper's one-pass multi-sample, reconstruction, and the operation counts
// that are the paper's own cost unit. Counts come from a fixed rng seed and
// repeat exactly from run to run.
func (e *layerEnv) coreLayer() (layer, error) {
	w, n := e.w, e.w.traceDraws
	scratch := make([]uint64, 0, core.ScratchHint)
	var firstErr error
	view := func(i int) *bloom.Filter { return e.views[e.keySeq[i%len(e.keySeq)]] }

	nosample := 0
	draws := func(ops *core.Ops) func() {
		return func() {
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < n; i++ {
				var x uint64
				var err error
				x, scratch, err = e.tree.SampleScratch(view(i), rng, ops, scratch)
				if err == core.ErrNoSample {
					nosample++
				} else if err != nil {
					firstErr = err
				}
				sink += x
			}
		}
	}
	// SampleN with r = the workload's batch, over the same number of draws.
	calls := max(n/w.batch, 1)
	multi := func(ops *core.Ops) func() {
		return func() {
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < calls; i++ {
				xs, err := e.tree.SampleN(view(i), w.batch, true, rng, ops)
				if err != nil {
					firstErr = err
				}
				sink += uint64(len(xs))
			}
		}
	}
	// Reconstruction, with the rule the server uses.
	found, expected := 0, 0
	recon := func(ops *core.Ops) func() {
		return func() {
			for i := 0; i < w.traceRecon; i++ {
				key := e.keySeq[i%len(e.keySeq)]
				ids, err := e.tree.Reconstruct(e.views[key], core.PruneByEstimate, ops)
				if err != nil {
					firstErr = err
				}
				sink += uint64(len(ids))
				if ops == nil {
					continue
				}
				expected += w.idsPerKey
				for _, x := range ids {
					if x < w.namespace && e.ds.truth[key].has(x) {
						found++
					}
				}
			}
		}
	}
	var union []uint64
	for _, ids := range e.ds.ids {
		union = append(union, ids...)
	}

	// One counted pass of each before any timing.
	var ops, mops, rops core.Ops
	draws(&ops)()
	counted := nosample
	multi(&mops)()
	recon(&rops)()
	chi2 := e.chiSquared()
	allocs := allocsPer(n, draws(nil))
	if firstErr != nil {
		return layer{}, firstErr
	}

	var sampleSelf, reconSelf []float64
	step := func(r int) error {
		sp := e.tr.do("core.sample", -1, r, n, draws(nil))
		bl, _ := e.replay("core.sample", sp, r, n, ops)
		sampleSelf = append(sampleSelf, selfTime(e.tr.dur(sp), bl)/float64(n))
		e.tr.do("core.samplen", -1, r, calls*w.batch, multi(nil))
		sp = e.tr.do("core.reconstruct", -1, r, w.traceRecon, recon(nil))
		bl, _ = e.replay("core.reconstruct", sp, r, w.traceRecon, rops)
		reconSelf = append(reconSelf, selfTime(e.tr.dur(sp), bl)/float64(w.traceRecon))
		e.tr.do("core.tree_build", -1, r, 1, func() {
			tree, err := core.BuildPruned(e.tree.Config(), union)
			if err != nil {
				firstErr = err
				return
			}
			sink += tree.Nodes()
		})
		return firstErr
	}
	report := func() error {
		e.metric("core.sample_ns_per_draw", e.tr.min("core.sample"), reps)
		e.metric("core.sample_self_ns_per_draw", median(sampleSelf), reps)
		e.metric("core.sample_allocs_per_draw", allocs, n)
		e.metric("core.intersections_per_draw", float64(ops.Intersections)/float64(n), n)
		e.metric("core.memberships_per_draw", float64(ops.Memberships)/float64(n), n)
		e.metric("core.nodes_per_draw", float64(ops.NodesVisited)/float64(n), n)
		e.metric("core.leaves_per_draw", float64(ops.LeavesScanned)/float64(n), n)
		e.metric("core.backtracks_per_draw", float64(ops.Backtracks)/float64(n), n)
		e.metric("core.nosample_share", float64(counted)/float64(n), n)
		e.metric("core.samplen_ns_per_draw", e.tr.min("core.samplen"), reps)
		e.metric("core.samplen_intersections_per_draw", float64(mops.Intersections)/float64(calls*w.batch), calls)
		e.metric("core.samplen_memberships_per_draw", float64(mops.Memberships)/float64(calls*w.batch), calls)
		e.metric("core.reconstruct_ns_per_call", e.tr.min("core.reconstruct"), reps)
		e.metric("core.reconstruct_self_ns_per_call", median(reconSelf), reps)
		e.metric("core.reconstruct_intersections_per_call", float64(rops.Intersections)/float64(w.traceRecon), w.traceRecon)
		e.metric("core.reconstruct_memberships_per_call", float64(rops.Memberships)/float64(w.traceRecon), w.traceRecon)
		e.metric("core.reconstruct_recall", float64(found)/float64(expected), expected)
		e.metric("core.chi2_over_dof", chi2, chiBins*130)
		e.metric("core.tree_build_ms", e.tr.min("core.tree_build")/1e6, reps)
		e.metric("core.tree_memory_mb", float64(e.tree.MemoryBytes())/(1<<20), 1)
		return nil
	}
	return layer{step, report}, nil
}

// chiBins is the number of cells of the uniformity check. The paper's Table 5
// draws 130 samples per element; with one cell per element that is 1.4
// million 0.3 ms draws on the batch_bin shape, beyond any run's time. The
// key's positives, in id order, are cut into chiBins cells of equal size
// instead and 130 samples are drawn per cell, which still shows the skew a
// wrong estimate or prune rule puts between subtrees.
const chiBins = 64

// chiSquared is chi² over its degrees of freedom for draws from the first
// request's key against the uniform distribution on that key's positives.
func (e *layerEnv) chiSquared() float64 {
	q := e.views[e.keySeq[0]]
	var positives []uint64
	for x := uint64(0); x < e.w.namespace; x++ {
		if q.Contains(x) {
			positives = append(positives, x)
		}
	}
	// A toy set has fewer positives than cells; it gets fewer cells.
	chiBins := min(chiBins, len(positives)/4)
	if chiBins < 2 {
		return 0
	}
	observed := make([]float64, chiBins)
	rng := rand.New(rand.NewSource(7))
	scratch := make([]uint64, 0, core.ScratchHint)
	drawn := 0
	for i := 0; i < chiBins*130; i++ {
		var x uint64
		var err error
		if x, scratch, err = e.tree.SampleScratch(q, rng, nil, scratch); err != nil {
			continue
		}
		rank := sort.Search(len(positives), func(j int) bool { return positives[j] >= x })
		observed[rank*chiBins/len(positives)]++
		drawn++
	}
	chi2 := 0.0
	for b, o := range observed {
		// Cell b holds the ranks r with r*chiBins/len == b.
		lo := (b*len(positives) + chiBins - 1) / chiBins
		hi := ((b+1)*len(positives) + chiBins - 1) / chiBins
		expected := float64(drawn) * float64(hi-lo) / float64(len(positives))
		chi2 += (o - expected) * (o - expected) / expected
	}
	return chi2 / float64(chiBins-1)
}

// lookup resolves a key to the filter version a read runs against, as the
// server's handlers do.
func (e *layerEnv) lookup(key int) *bloom.Filter {
	if e.w.wal {
		f, _ := e.db.SnapshotDynamic(e.ds.keys[key])
		return f
	}
	return e.db.Filter(e.ds.keys[key])
}

// splitDraws makes one sample request's draws straight on the tree, split
// over the goroutines setdb would use, so that its wall time can be set
// against setdb's.
func (e *layerEnv) splitDraws(f *bloom.Filter, n int) {
	worker := func(g int) {
		rng := rand.New(rand.NewSource(int64(g)))
		scratch := make([]uint64, 0, core.ScratchHint)
		var acc uint64
		for i := g; i < n; i += e.split {
			var x uint64
			x, scratch, _ = e.tree.SampleScratch(f, rng, nil, scratch)
			acc += x
		}
		atomic.AddUint64(&sink, acc)
	}
	if e.split == 1 {
		worker(0)
		return
	}
	var wg sync.WaitGroup
	for g := 0; g < e.split; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(g)
		}()
	}
	wg.Wait()
}

// setdbReads times the key lookup and the batch fan-out over the tree.
func (e *layerEnv) setdbReads() layer {
	w, n := e.w, e.w.traceReqs
	var firstErr error
	returned := 0
	view := func(i int) *bloom.Filter { return e.views[e.keySeq[i%len(e.keySeq)]] }
	many := func() {
		for i := 0; i < n; i++ {
			ids, err := e.db.SampleManyFrom(view(i), w.batch, 0, nil)
			if err != nil {
				firstErr = err
			}
			returned += len(ids)
		}
	}
	allocs := allocsPer(n, many)
	returned = 0
	var self []float64
	step := func(r int) error {
		e.tr.do("setdb.lookup", -1, r, len(e.keySeq), func() {
			for _, key := range e.keySeq {
				sink += e.lookup(key).M()
			}
		})
		sp := e.tr.do("setdb.sample_many", -1, r, n*w.batch, many)
		under := e.tr.do("setdb.sample_many/core.sample", sp, r, n*w.batch, func() {
			for i := 0; i < n; i++ {
				e.splitDraws(view(i), w.batch)
			}
		})
		self = append(self, selfTime(e.tr.dur(sp), e.tr.dur(under))/float64(n*w.batch))
		return firstErr
	}
	report := func() error {
		shortfall := 1 - float64(returned)/float64(reps*n*w.batch)
		e.metric("setdb.lookup_ns_per_call", e.tr.min("setdb.lookup"), reps)
		e.metric("setdb.sample_many_ns_per_draw", e.tr.min("setdb.sample_many"), reps)
		e.metric("setdb.sample_many_self_ns_per_draw", median(self), reps)
		e.metric("setdb.sample_many_allocs_per_call", allocs, n)
		e.metric("setdb.shortfall_share", shortfall, reps*n*w.batch)
		if shortfall > w.maxShortfall {
			e.res.problem("setdb.shortfall_share %.4f is above %.2f", shortfall, w.maxShortfall)
		}
		return nil
	}
	return layer{step, report}
}

// writePath times the layers a write crosses — setdb's copy-on-write group
// commit and the WAL around it — with the writes of the mixed workload's
// generator on this workload's filter shape. Every workload reports it, so
// that a read-side change that makes writes dearer shows wherever it lands.
func (e *layerEnv) writePath() (layer, error) {
	w := e.w
	w.kind, w.wal, w.keys, w.zipfS = opAdd, true, min(e.w.keys, 32), 0
	writes := e.w.traceReqs
	walDir := filepath.Join(e.dir, "wal")
	openStore := func() (*wal.Store, error) {
		return wal.Open(walDir, func() (*setdb.DB, error) { return planDB(w) },
			wal.Options{Fsync: wal.FsyncInterval, FsyncInterval: 100 * time.Millisecond})
	}

	// Two databases take the same writes: one bare, one behind a WAL. Every
	// repetition continues the same generator stream, so the sets keep the
	// slow growth they have in the served workload.
	mem, err := planDB(w)
	if err != nil {
		return layer{}, err
	}
	store, err := openStore()
	if err != nil {
		return layer{}, err
	}
	e.cleanup = append(e.cleanup, func() { store.Close() })
	type target struct {
		apply func([]setdb.Write) error
		st    *opStream
	}
	bare, logged := &target{apply: mem.ApplyBatch}, &target{apply: store.Apply}
	for _, t := range []*target{bare, logged} {
		ds := generate(w, e.cfg.seed)
		if err := load(t.apply, ds, true); err != nil {
			return layer{}, err
		}
		t.st = newOpStream(w, ds, e.cfg.seed, 0, 1)
	}
	var firstErr error
	run := func(t *target) func() {
		return func() {
			for done := 0; done < writes && firstErr == nil; {
				o := t.st.next()
				if o.kind == opSample {
					continue
				}
				firstErr = t.apply([]setdb.Write{{Key: t.st.ds.keys[o.key], IDs: o.ids, Dynamic: true, Remove: o.kind == opRemove}})
				t.st.ack(o)
				done++
			}
		}
	}
	copied0, ws0 := mem.Stats().StateBytesCopied, store.Stats()
	keys := mem.DynamicKeys()
	var self []float64
	step := func(r int) error {
		a := e.tr.do("wal.apply", -1, r, writes, run(logged))
		b := e.tr.do("wal.apply/setdb.apply_batch", a, r, writes, run(bare))
		self = append(self, selfTime(e.tr.dur(a), e.tr.dur(b))/float64(writes))
		// The first pass after the writes rebuilds the views of the keys they
		// touched (membership.query_view_miss has that cost); the timed pass
		// is the lookup of a published view.
		snapshots := func() {
			for _, key := range keys {
				f, _ := mem.SnapshotDynamic(key)
				sink += f.M()
			}
		}
		snapshots()
		e.tr.do("setdb.snapshot_dynamic", -1, r, len(keys), snapshots)
		return firstErr
	}
	report := func() error {
		total := float64(reps * writes)
		ws1 := store.Stats()
		e.metric("setdb.apply_batch_ns_per_write", e.tr.min("wal.apply/setdb.apply_batch"), reps)
		e.metric("setdb.bytes_copied_per_write", float64(mem.Stats().StateBytesCopied-copied0)/total, reps*writes)
		e.metric("setdb.snapshot_dynamic_ns_per_call", e.tr.min("setdb.snapshot_dynamic"), reps)
		e.metric("wal.apply_ns_per_write", e.tr.min("wal.apply"), reps)
		e.metric("wal.self_ns_per_write", median(self), reps)
		e.metric("wal.bytes_per_write", float64(ws1.AppendedBytes-ws0.AppendedBytes)/total, reps*writes)
		e.metric("wal.fsyncs_per_1k_writes", float64(ws1.Fsyncs-ws0.Fsyncs)/total*1000, reps*writes)

		// Replay: close, and boot again from the initial snapshot plus the
		// log. Then one snapshot of what was replayed.
		if err := store.Close(); err != nil {
			return err
		}
		t0 := time.Now()
		reopened, err := openStore()
		if err != nil {
			return err
		}
		store = reopened
		replay := time.Since(t0)
		replayed := store.Stats().ReplayedAtBoot
		e.metric("wal.replay_ns_per_write", float64(replay.Nanoseconds())/float64(max(replayed, 1)), int(replayed))
		info, err := store.Snapshot()
		e.metric("wal.snapshot_ms", info.DurationMS, 1)
		return err
	}
	return layer{step, report}, nil
}

// wireLayer times the binary codec on this workload's request and reply.
func (e *layerEnv) wireLayer() layer {
	const calls = 4096
	key := e.ds.keys[0]
	ids := e.ds.ids[0]
	var frame, body, resp []byte
	decode := func() (int, error) {
		res, err := wire.DecodeSampleResult(resp)
		return len(res.IDs), err
	}
	if e.w.kind == opReconstruct {
		resp = wire.IDsResult{IDs: ids}.Encode(nil)
		decode = func() (int, error) {
			res, err := wire.DecodeIDsResult(resp)
			return len(res.IDs), err
		}
	} else {
		ids = ids[:min(e.w.batch, len(ids))]
		resp = wire.SampleResult{Requested: uint64(len(ids)), IDs: ids}.Encode(nil)
	}
	n := max(calls/len(ids), 8)
	step := func(r int) (err error) {
		e.tr.do("wire.encode_req", -1, r, calls, func() {
			for i := 0; i < calls; i++ {
				if e.w.kind == opReconstruct {
					body = wire.ReconstructReq{Key: key}.Encode(body[:0])
					frame = wire.AppendFrame(frame[:0], wire.OpReconstruct, 0, uint32(i), body)
				} else {
					body = wire.SampleReq{Key: key, N: uint64(e.w.batch)}.Encode(body[:0], false)
					frame = wire.AppendFrame(frame[:0], wire.OpSample, 0, uint32(i), body)
				}
			}
			sink += uint64(len(frame))
		})
		e.tr.do("wire.decode_resp", -1, r, n*len(ids), func() {
			for i := 0; i < n; i++ {
				if got, derr := decode(); derr != nil || got != len(ids) {
					err = fmt.Errorf("decoding a %d-id reply gave %d ids: %v", len(ids), got, derr)
				}
			}
		})
		return err
	}
	report := func() error {
		e.metric("wire.encode_req_ns", e.tr.min("wire.encode_req"), reps)
		e.metric("wire.decode_resp_ns_per_id", e.tr.min("wire.decode_resp"), reps)
		e.metric("wire.resp_bytes_per_id", float64(len(resp))/float64(len(ids)), len(ids))
		return nil
	}
	return layer{step, report}
}

// discard is the http.ResponseWriter of the in-process HTTP calls.
type discard struct {
	h      http.Header
	status int
	body   []byte
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(status int)      { d.status = status }
func (d *discard) Write(p []byte) (int, error) { d.body = append(d.body, p...); return len(p), nil }

// pipeListener hands Server.ServeBinary the server end of one net.Pipe.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}
func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// serverLayer walks one request down the stack, each layer called on the
// same keys: over TCP loopback, straight into the server (ServeHTTP, and
// ServeBinary over a net.Pipe), into setdb, into core, and the replay of
// core's calls beneath that. The spans of one repetition sit next to each
// other in time, so a self time is taken within the repetition and the
// reported one is the median over the repetitions; the rows sum to the
// loopback request.
func (e *layerEnv) serverLayer() (layer, error) {
	w, n := e.w, e.w.traceReqs
	srv := server.New(e.db, server.Config{})
	pipeSrv := server.New(e.db, server.Config{}) // ServeBinary runs once per Server
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return layer{}, err
	}
	binLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		httpLn.Close()
		return layer{}, err
	}
	hs := &http.Server{Handler: srv}
	var serving sync.WaitGroup
	serving.Add(3)
	go func() { defer serving.Done(); _ = hs.Serve(httpLn) }()
	go func() { defer serving.Done(); _ = srv.ServeBinary(binLn) }()
	serverEnd, clientEnd := net.Pipe()
	pl := &pipeListener{conns: make(chan net.Conn, 1), done: make(chan struct{})}
	pl.conns <- serverEnd
	go func() { defer serving.Done(); _ = pipeSrv.ServeBinary(pl) }()
	pipe := binConn{wire.NewClient(clientEnd)}
	e.cleanup = append(e.cleanup, func() {
		pipe.close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		_ = srv.ShutdownBinary(ctx)
		_ = pipeSrv.ShutdownBinary(ctx)
		serving.Wait()
	})
	loop, err := dial(w.proto, &child{http: httpLn.Addr().String(), bin: binLn.Addr().String()})
	if err != nil {
		return layer{}, err
	}
	e.cleanup = append(e.cleanup, loop.close)

	var firstErr error
	ids, bytesOut := 0, 0
	request := func(c conn, key int) {
		var got []uint64
		var err error
		if w.kind == opReconstruct {
			got, err = c.reconstruct(e.ds.keys[key])
		} else {
			got, err = c.sample(e.ds.keys[key], w.batch, w.wal)
		}
		if err != nil {
			firstErr = err
		}
		ids += len(got)
	}
	rw := &discard{h: http.Header{}}
	var reqBody []byte
	countReply := false // on for the one untimed pass that sizes the replies
	inHTTP := func(key int) {
		path := "/v1/sample"
		if w.kind == opReconstruct {
			path, reqBody = "/v1/reconstruct", reconstructJSON(reqBody[:0], e.ds.keys[key])
		} else {
			reqBody = sampleJSON(reqBody[:0], e.ds.keys[key], w.batch, w.wal)
		}
		req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(reqBody))
		if err != nil {
			firstErr = err
			return
		}
		clear(rw.h)
		rw.status, rw.body = 0, rw.body[:0]
		srv.ServeHTTP(rw, req)
		if rw.status != http.StatusOK {
			firstErr = fmt.Errorf("in-process %s: status %d: %s", path, rw.status, rw.body)
		}
		if countReply {
			got, _ := parseIDs(rw.body, nil)
			ids, bytesOut = ids+len(got), bytesOut+len(rw.body)
		}
	}
	inPipe := func(key int) { request(pipe, key) }
	inSetdb := func(key int) {
		var got []uint64
		var err error
		if w.kind == opReconstruct {
			got, err = e.db.Reconstruct(e.ds.keys[key], core.PruneByEstimate, nil)
		} else {
			got, err = e.db.SampleManyFrom(e.lookup(key), w.batch, 0, nil)
		}
		if err != nil {
			firstErr = err
		}
		sink += uint64(len(got))
	}
	inCore := func(ops *core.Ops) func(int) {
		return func(key int) {
			if w.kind == opReconstruct {
				got, _ := e.tree.Reconstruct(e.views[key], core.PruneByEstimate, ops)
				sink += uint64(len(got))
			} else if ops != nil {
				_, _ = e.db.SampleManyFrom(e.views[key], w.batch, 0, ops)
			} else {
				e.splitDraws(e.views[key], w.batch)
			}
		}
	}
	each := func(fn func(key int)) func() {
		return func() {
			for i := 0; i < n; i++ {
				fn(e.keySeq[i%len(e.keySeq)])
			}
		}
	}
	var ops core.Ops
	each(inCore(&ops))()
	httpAllocs, binAllocs := allocsPer(n, each(inHTTP)), allocsPer(n, each(inPipe))
	countReply, ids, bytesOut = true, 0, 0
	each(inHTTP)()
	countReply = false
	bytesPerID, sized := float64(bytesOut)/float64(max(ids, 1)), ids
	if firstErr != nil {
		return layer{}, firstErr
	}
	par := 1.0 // goroutines the work under core runs on; the replays run on one
	if w.kind != opReconstruct {
		par = float64(e.split)
	}
	protoSpan, otherSpan := "server.http", "server.bin"
	inProto, inOther := inHTTP, inPipe
	if w.proto == "bin" {
		protoSpan, otherSpan, inProto, inOther = otherSpan, protoSpan, inOther, inProto
	}

	// Per repetition: the rows of the ledger, and the three paired numbers.
	rowNames := []string{"transport (loopback − " + protoSpan + ")", "server", "setdb", "core", "bloom", "bitset + hashfam"}
	rowNS := make([][]float64, len(rowNames))
	var overhead, residual, httpSelf, binSelf, transportSelf []float64
	step := func(r int) error {
		// The traced and the untraced loopback pass sit side by side and
		// swap places every repetition, so that whatever the passes before
		// them left behind weighs on both alike.
		z := -1
		untraced := func() { z = e.tr.do("loopback", -1, r, n, each(func(key int) { request(loop, key) })) }
		if r%2 == 1 {
			untraced()
		}
		a := len(e.tr.spans) + n // the enclosing span lands after its n children
		e.tr.do("loopback.traced", -1, r, n, func() {
			for i := 0; i < n; i++ {
				e.tr.do("loopback.request", a, r, 1, func() { request(loop, e.keySeq[i%len(e.keySeq)]) })
			}
		})
		if r%2 == 0 {
			untraced()
		}
		s := e.tr.do(protoSpan, a, r, n, each(inProto))
		o := e.tr.do(otherSpan, -1, r, n, each(inOther))
		d := e.tr.do("setdb.request", s, r, n, each(inSetdb))
		c := e.tr.do("core.request", d, r, n, each(inCore(nil)))
		bl, lf := e.replay("core.request", c, r, n, ops)
		bl, lf = bl/par, lf/par

		per := func(ns float64) float64 { return ns / float64(n) }
		rows := []float64{
			selfTime(e.tr.dur(a), e.tr.dur(s)), selfTime(e.tr.dur(s), e.tr.dur(d)), selfTime(e.tr.dur(d), e.tr.dur(c)),
			selfTime(e.tr.dur(c), bl), selfTime(bl, lf), lf,
		}
		sum := 0.0
		for i, ns := range rows {
			rowNS[i] = append(rowNS[i], per(ns))
			sum += ns
		}
		overhead = append(overhead, (e.tr.dur(a)-e.tr.dur(z))/e.tr.dur(z))
		residual = append(residual, math.Abs(sum-e.tr.dur(z))/e.tr.dur(z))
		transportSelf = append(transportSelf, per(selfTime(e.tr.dur(z), e.tr.dur(s))))
		h, b := s, o
		if w.proto == "bin" {
			h, b = o, s
		}
		httpSelf = append(httpSelf, per(selfTime(e.tr.dur(h), e.tr.dur(d))))
		binSelf = append(binSelf, per(selfTime(e.tr.dur(b), e.tr.dur(d))))
		return firstErr
	}
	report := func() error {
		e.metric("server.http_ns_per_req", e.tr.min("server.http"), reps)
		e.metric("server.http_self_ns_per_req", median(httpSelf), reps)
		e.metric("server.http_allocs_per_req", httpAllocs, n)
		e.metric("server.http_resp_bytes_per_id", bytesPerID, sized)
		e.metric("server.bin_ns_per_req", e.tr.min("server.bin"), reps)
		e.metric("server.bin_self_ns_per_req", median(binSelf), reps)
		e.metric("server.bin_allocs_per_req", binAllocs, n)
		e.metric("server.loopback_ns_per_req", e.tr.min("loopback"), reps)
		e.metric("server.transport_self_ns_per_req", median(transportSelf), reps)
		e.metric("trace.overhead_share", median(overhead), reps*n)
		e.metric("ledger.residual_share", median(residual), reps*n)
		sum := 0.0
		for i, name := range rowNames {
			e.ledger = append(e.ledger, ledgerRow{Layer: name, SelfNS: median(rowNS[i])})
			sum += median(rowNS[i])
		}
		for i := range e.ledger {
			e.ledger[i].Share = e.ledger[i].SelfNS / sum
		}
		return nil
	}
	return layer{step, report}, nil
}

// servedView gives the traced run the real child's account of a request: a
// short window of the workload's traffic, its latency quantiles, and the
// server's own counters scraped before and after.
func (e *layerEnv) servedView(bin string) error {
	cfg := e.cfg
	cfg.window /= 5
	c, ds, _, err := setup(e.w, cfg, bin, filepath.Join(e.dir, "served"))
	if err != nil {
		return err
	}
	recs, win, err := measureWindow(e.w, cfg, c, ds)
	if err != nil {
		c.kill()
		return err
	}
	// The tail of a served request lives here and not among the guarded
	// end-to-end metrics: see "Bounds" in README.md.
	var all []float64
	for _, r := range recs {
		for _, s := range r.slices {
			all = append(append(all, s.read...), s.write...)
		}
	}
	e.metric("server.served_p50_us", percentile(all, 0.50), len(all))
	e.metric("server.served_p99_us", percentile(all, 0.99), len(all))
	e.res.ServerCmd = c.commandLine()
	addServerView(e.res, win)
	return c.stop()
}

// runTraced is the traced run of one workload: every per-layer metric, the
// ledger table on standard output and the spans in bench/out.
func runTraced(w workload, cfg runConfig, bin string) (res workloadResult, err error) {
	res = workloadResult{Name: w.name, Why: w.why, Correct: true}
	tr := newTracer()
	e, err := newLayerEnv(w, cfg, tr, &res)
	if err != nil {
		return res, err
	}
	defer func() {
		for i := len(e.cleanup) - 1; i >= 0; i-- {
			e.cleanup[i]()
		}
		if rmErr := os.RemoveAll(e.dir); err == nil {
			err = rmErr
		}
	}()
	layers := []layer{e.primitives(), e.setdbReads(), e.wireLayer()}
	for _, build := range []func() (layer, error){e.membershipLayer, e.coreLayer, e.writePath, e.serverLayer} {
		l, err := build()
		if err != nil {
			return res, err
		}
		layers = append(layers, l)
	}
	// The per-layer timings are raw; the probe says how fast the box was
	// while they were taken (1 is the reference, 0.5 half speed).
	pr, t0 := startProbe(), time.Now()
	defer pr.stop()
	for r := 0; r < reps; r++ {
		for _, l := range layers {
			if err := l.step(r); err != nil {
				return res, err
			}
		}
	}
	e.metric("trace.machine_speed", speedBetween(pr.stop(), t0, time.Now()), 1)
	for _, l := range layers {
		if err := l.report(); err != nil {
			return res, err
		}
	}
	if err := e.servedView(bin); err != nil {
		return res, err
	}
	// Rows are reported in the table's order, whatever order they were measured in.
	sort.SliceStable(res.Metrics, func(i, j int) bool {
		return layerIndex(res.Metrics[i].Name) < layerIndex(res.Metrics[j].Name)
	})
	res.Attempted = len(tr.spans)
	res.Ledger = e.ledger
	file := traceFile{Workload: w.name, Seed: cfg.seed, Spans: tr.spans}
	return res, file.write()
}

func layerIndex(name string) int {
	for i, d := range perLayer {
		if d.name == name {
			return i
		}
	}
	return len(perLayer)
}
