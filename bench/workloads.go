package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
)

// opKind is what one request of a workload asks the server to do.
type opKind uint8

const (
	opSample opKind = iota
	opReconstruct
	opAdd
	opRemove
)

// workload is one set of inputs the benchmark runs: a database shape, a
// protocol and a request mix. Every field is fixed here so that the only
// selectors on the command line are -workload, -seed and -trace.
type workload struct {
	name string
	why  string

	proto     string // protocol of the measured requests: "http" or "bin"
	kind      opKind // opSample, opReconstruct, or opAdd for the mixed read/write loop
	namespace uint64 // M
	setSize   uint64 // -setsize: the set size the server plans its filters for
	keys      int
	idsPerKey int     // ids ingested per key at set-up
	zipfS     float64 // key popularity exponent; 0 draws keys uniformly
	batch     int     // ids per sample request, and r of the traced SampleN
	wal       bool    // dynamic keys on the counting backend behind -data-dir -fsync 100ms

	// Gates of the per-run correctness check (satellite 1 of the issue).
	minAccuracy  float64
	maxShortfall float64 // ids asked for and not returned ÷ ids asked for
	minRecall    float64 // opReconstruct only
	minTail      int     // completions a slice (or the pooled window) must hold for a p99

	// Fixed work of the traced run, sized so that one repetition takes
	// tens of milliseconds on this shape.
	traceDraws int // core.Tree draws per repetition
	traceReqs  int // requests per repetition at the setdb and server layers
	traceRecon int // reconstructions per repetition
}

// The four workloads. Shapes follow ISSUE 11; bench/README.md records why
// each exists and what it leaves out.
var workloads = []workload{
	{
		name: "point_http", why: "HTTP/JSON single-id samples over 2000 Zipf-popular keys: per-request pipeline and codec cost dominate the short descent",
		proto: "http", kind: opSample, namespace: 100_000, setSize: 1_000, keys: 2_000, idsPerKey: 1_000, zipfS: 1.1, batch: 1,
		minAccuracy: 0.85, maxShortfall: 0.02, minTail: 1_100, traceDraws: 2_000, traceReqs: 1_000, traceRecon: 20,
	},
	{
		name: "batch_bin", why: "binary-protocol 64-id samples over 16 keys of 10000 ids at M=1e6: the tree descent is nearly all of the time, transport almost none",
		proto: "bin", kind: opSample, namespace: 1_000_000, setSize: 10_000, keys: 16, idsPerKey: 10_000, batch: 64,
		minAccuracy: 0.85, maxShortfall: 0.02, minTail: 600, traceDraws: 256, traceReqs: 8, traceRecon: 2,
	},
	{
		name: "reconstruct_http", why: "HTTP/JSON reconstruction on the batch_bin database: the tree walked exhaustively plus an 11k-id JSON reply; the only place recall can be lost",
		proto: "http", kind: opReconstruct, namespace: 1_000_000, setSize: 10_000, keys: 16, idsPerKey: 10_000, batch: 64,
		minAccuracy: 0.85, maxShortfall: 0.02, minRecall: 0.99, minTail: 600, traceDraws: 256, traceReqs: 4, traceRecon: 2,
	},
	{
		name: "mixed_wal", why: "binary 70% sample / 20% add / 10% remove on 1000 dynamic counting-backend keys behind a WAL: writes beside reads, then a reboot that must replay every acknowledged write",
		proto: "bin", kind: opAdd, namespace: 100_000, setSize: 1_000, keys: 1_000, idsPerKey: 500, batch: 1, wal: true,
		minAccuracy: 0.85, maxShortfall: 0.02, minTail: 1_100, traceDraws: 2_000, traceReqs: 1_000, traceRecon: 20,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// toy shrinks a workload to the sizes the tier-1 smoke test runs: the same
// code paths, one second of traffic, gates loose enough for 1/50 of the data.
func (w workload) toy() workload {
	w.namespace /= 10
	w.setSize /= 10
	w.keys = max(4, w.keys/50)
	w.idsPerKey /= 10
	w.minTail = 10
	w.minAccuracy, w.maxShortfall = 0.5, 1
	if w.minRecall > 0 {
		w.minRecall = 0.5
	}
	w.traceDraws = 64
	w.traceReqs = 8
	w.traceRecon = 1
	return w
}

// bitmap is the generator's ground truth for one key: bit x is set when id x
// was ingested. It is kept apart from internal/bitset on purpose, so that the
// check does not trust the code under test.
type bitmap []uint64

func newBitmap(n uint64) bitmap               { return make(bitmap, (n+63)/64) }
func (b bitmap) has(x uint64) bool            { return b[x/64]&(1<<(x%64)) != 0 }
func (b bitmap) set(x uint64)                 { b[x/64] |= 1 << (x % 64) }
func (b bitmap) clear(x uint64)               { b[x/64] &^= 1 << (x % 64) }
func keyName(i int) string                    { return fmt.Sprintf("k%05d", i) }
func streamSeed(seed int64, stream int) int64 { return seed*1_000_003 + int64(stream) }

// each calls fn with every set id in ascending order.
func (b bitmap) each(fn func(x uint64)) {
	for i, word := range b {
		for ; word != 0; word &= word - 1 {
			fn(uint64(i*64 + bits.TrailingZeros64(word)))
		}
	}
}

// dataset is what set-up ingests: for every key its ids in ingest order and
// the truth bitmap the replies are checked against.
type dataset struct {
	keys  []string
	ids   [][]uint64
	truth []bitmap
}

// generate draws idsPerKey distinct uniform ids for every key. The same
// (workload, seed) always yields the same dataset.
func generate(w workload, seed int64) *dataset {
	rng := rand.New(rand.NewSource(streamSeed(seed, 0)))
	ds := &dataset{keys: make([]string, w.keys), ids: make([][]uint64, w.keys), truth: make([]bitmap, w.keys)}
	for k := range ds.keys {
		ds.keys[k] = keyName(k)
		ds.truth[k] = newBitmap(w.namespace)
		ds.ids[k] = make([]uint64, 0, w.idsPerKey)
		for len(ds.ids[k]) < w.idsPerKey {
			x := uint64(rng.Int63n(int64(w.namespace)))
			if !ds.truth[k].has(x) {
				ds.truth[k].set(x)
				ds.ids[k] = append(ds.ids[k], x)
			}
		}
	}
	return ds
}

// op is one request the generator asks a client to send.
type op struct {
	kind opKind
	key  int      // index into dataset.keys
	slot int      // index into the stream's own keys
	ids  []uint64 // opAdd / opRemove
}

// opStream is one closed-loop client's request sequence. The sequence is a
// function of (workload, seed, client) alone as long as every request is
// acknowledged, which is what the workloads are chosen for: the stream reads
// its own shadow model (ids it added and has not removed) and nothing else.
// In the mixed workload the keys are partitioned between the clients, so a
// stream is the only writer of the truth bitmaps it updates.
type opStream struct {
	w     workload
	ds    *dataset
	rng   *rand.Rand
	zipf  *rand.Zipf
	mine  []int      // key indices this client may touch
	added [][]uint64 // mixed: per entry of mine, ids this client added and still holds
	buf   []uint64
}

func newOpStream(w workload, ds *dataset, seed int64, client, clients int) *opStream {
	s := &opStream{w: w, ds: ds, rng: rand.New(rand.NewSource(streamSeed(seed, 1+client)))}
	for k := range ds.keys {
		if w.kind != opAdd || k%clients == client {
			s.mine = append(s.mine, k)
		}
	}
	if w.zipfS > 0 {
		s.zipf = rand.NewZipf(s.rng, w.zipfS, 1, uint64(len(s.mine)-1))
	}
	s.added = make([][]uint64, len(s.mine))
	return s
}

// next returns the client's next request. The returned ids alias a buffer
// that the following call overwrites.
func (s *opStream) next() op {
	var slot int
	if s.zipf != nil {
		slot = int(s.zipf.Uint64())
	} else {
		slot = s.rng.Intn(len(s.mine))
	}
	key := s.mine[slot]
	if s.w.kind != opAdd {
		return op{kind: s.w.kind, key: key, slot: slot}
	}
	switch p := s.rng.Intn(10); {
	case p < 7:
		return op{kind: opSample, key: key, slot: slot}
	case p < 9 || len(s.added[slot]) == 0:
		// 20% adds of 1–8 ids the set does not hold, so every id has
		// multiplicity one and the shadow model stays a plain set. A remove
		// that finds nothing to remove becomes an add as well.
		s.buf = s.buf[:0]
		for n := 1 + s.rng.Intn(8); len(s.buf) < n; {
			x := uint64(s.rng.Int63n(int64(s.w.namespace)))
			if !s.ds.truth[key].has(x) && !slices.Contains(s.buf, x) {
				s.buf = append(s.buf, x)
			}
		}
		return op{kind: opAdd, key: key, slot: slot, ids: s.buf}
	default:
		// 10% removes of 1–8 ids this client added earlier, newest first.
		held := s.added[slot]
		n := min(1+s.rng.Intn(8), len(held))
		s.buf = append(s.buf[:0], held[len(held)-n:]...)
		return op{kind: opRemove, key: key, slot: slot, ids: s.buf}
	}
}

// ack folds an acknowledged write into the shadow model and the truth.
func (s *opStream) ack(o op) {
	switch o.kind {
	case opAdd:
		for _, x := range o.ids {
			s.ds.truth[o.key].set(x)
		}
		s.added[o.slot] = append(s.added[o.slot], o.ids...)
	case opRemove:
		for _, x := range o.ids {
			s.ds.truth[o.key].clear(x)
		}
		s.added[o.slot] = s.added[o.slot][:len(s.added[o.slot])-len(o.ids)]
	}
}
