package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/setdb"
	"repro/internal/wire"
)

const (
	// clients is the number of closed-loop clients: nproc of the box the
	// baseline was taken on. Callers of a sampling service wait for their
	// answer, so each client sends its next request only after the reply.
	clients = 2
	// windowSlices cut the window so that a neighbour's burst on the shared box
	// spoils one slice's value, not the reported median.
	windowSlices = 6
)

// runConfig is what the command line selects, plus the number of set-ups,
// which the tier-1 smoke test cuts to one.
type runConfig struct {
	seed   int64
	window time.Duration
	trace  bool
	setups int // set-ups per run; setup_s is their median
}

// warmup is one slice long: caches fill and lazy set-up finishes before the
// first measured slice, in the same proportion whatever the window length.
func (c runConfig) warmup() time.Duration   { return c.window / windowSlices }
func (c runConfig) sliceLen() time.Duration { return c.window / windowSlices }

// sliceRec is what one client saw complete in one slice of the window.
type sliceRec struct {
	ops, ids, trueIDs   int
	requested, returned int // sample requests: ids asked for and ids received
	expected, found     int // reconstructions: true ids of the key and true ids returned
	read, write         []float64
}

// add folds o's counters into s; the latency lists are merged by the caller.
func (s *sliceRec) add(o sliceRec) {
	s.ops += o.ops
	s.ids += o.ids
	s.trueIDs += o.trueIDs
	s.requested += o.requested
	s.returned += o.returned
	s.expected += o.expected
	s.found += o.found
}

// recorder is one client's tally. Only its own goroutine writes it.
type recorder struct {
	slices    []sliceRec
	attempted int
	failed    int
	problems  []string
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 4 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// clientLoop sends requests back to back until end. Requests completing in
// [start, end) are recorded in their slice; earlier ones are warm-up, and the
// one in flight at end still updates the shadow model, so that the model holds
// exactly the acknowledged writes.
func clientLoop(w workload, cn conn, st *opStream, start, end time.Time, sliceLen time.Duration, rec *recorder) {
	for time.Now().Before(end) {
		o := st.next()
		key := st.ds.keys[o.key]
		var ids []uint64
		var err error
		t0 := time.Now()
		switch o.kind {
		case opSample:
			ids, err = cn.sample(key, w.batch, w.wal)
		case opReconstruct:
			ids, err = cn.reconstruct(key)
		case opAdd:
			err = cn.add(key, o.ids)
		case opRemove:
			err = cn.remove(key, o.ids)
		}
		t1 := time.Now()
		if err == nil {
			st.ack(o)
		}
		if t1.Before(start) || !t1.Before(end) {
			continue
		}
		rec.attempted++
		if err != nil {
			rec.fail("%s %s: %v", opNames[o.kind], key, err)
			continue
		}
		truth, trueIDs, valid := st.ds.truth[o.key], 0, true
		for _, x := range ids {
			if x >= w.namespace {
				valid = false
				break
			}
			if truth.has(x) {
				trueIDs++
			}
		}
		if !valid || (o.kind == opSample && len(ids) > w.batch) {
			rec.fail("%s %s: reply of %d ids holds an id outside [0,%d) or more ids than asked for", opNames[o.kind], key, len(ids), w.namespace)
			continue
		}
		s := &rec.slices[min(int(t1.Sub(start)/sliceLen), windowSlices-1)]
		s.ops++
		s.ids += len(ids)
		s.trueIDs += trueIDs
		us := float64(t1.Sub(t0).Nanoseconds()) / 1e3
		switch o.kind {
		case opSample:
			s.requested += w.batch
			s.returned += len(ids)
			s.read = append(s.read, us)
		case opReconstruct:
			s.expected += w.idsPerKey
			s.found += trueIDs
			s.read = append(s.read, us)
		default:
			s.write = append(s.write, us)
		}
	}
}

var opNames = map[opKind]string{opSample: "sample", opReconstruct: "reconstruct", opAdd: "add", opRemove: "remove"}

// ingestBatches cuts the dataset into the group-commit batches set-up sends,
// below the server's default limits (1000 sets and 100000 ids per request),
// and hands each, as a range of key indices, to send.
func ingestBatches(ds *dataset, send func(lo, hi int) error) error {
	lo, n := 0, 0
	for k := range ds.keys {
		if k-lo == 1000 || n+len(ds.ids[k]) > 50_000 {
			if err := send(lo, k); err != nil {
				return err
			}
			lo, n = k, 0
		}
		n += len(ds.ids[k])
	}
	return send(lo, len(ds.keys))
}

// ingest loads the dataset over the binary protocol.
func ingest(w workload, c *child, ds *dataset) error {
	wc, err := wire.Dial(c.bin)
	if err != nil {
		return err
	}
	defer wc.Close()
	wc.Timeout = 60 * time.Second
	return ingestBatches(ds, func(lo, hi int) error {
		batch := make([]wire.AddSet, 0, hi-lo)
		for k := lo; k < hi; k++ {
			batch = append(batch, wire.AddSet{Key: ds.keys[k], IDs: ds.ids[k], Dynamic: w.wal})
		}
		_, err := wc.Add(batch...)
		return err
	})
}

// setup is the path from nothing to a loaded server: generate the data,
// start the child, wait for /readyz, ingest. The time it returns is when the
// path began; its wall time until now is one setup_s observation.
func setup(w workload, cfg runConfig, bin, dir string) (*child, *dataset, time.Time, error) {
	var t0 time.Time
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, t0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, t0, err
	}
	t0 = time.Now()
	ds := generate(w, cfg.seed)
	c, err := startChild(bin, dir, serverArgs(w, filepath.Join(dir, "data")))
	if err != nil {
		return nil, nil, t0, err
	}
	if err := ingest(w, c, ds); err != nil {
		c.kill()
		return nil, nil, t0, fmt.Errorf("ingest: %w", err)
	}
	return c, ds, t0, nil
}

// runEndToEnd measures one workload against the real server with tracing
// off and returns its rows: the guarded end-to-end metrics first, then the
// extras that only this workload has.
func runEndToEnd(w workload, cfg runConfig, bin string) (res workloadResult, err error) {
	res = workloadResult{Name: w.name, Why: w.why, Correct: true}
	dir := filepath.Join(outDir, "run-"+w.name)
	defer func() {
		if err == nil {
			err = os.RemoveAll(dir)
		}
	}()

	pr := startProbe()
	defer pr.stop()
	var c *child
	var ds *dataset
	var setups [][2]time.Time
	for i := 0; i < cfg.setups; i++ {
		if c != nil {
			if err := c.stop(); err != nil {
				return res, fmt.Errorf("stopping the server of set-up %d: %w", i, err)
			}
		}
		var t0 time.Time
		if c, ds, t0, err = setup(w, cfg, bin, dir); err != nil {
			return res, err
		}
		setups = append(setups, [2]time.Time{t0, time.Now()})
	}
	defer func() {
		if c != nil {
			c.kill()
		}
	}()
	res.ServerCmd = c.commandLine()

	recs, win, err := measureWindow(w, cfg, c, ds)
	if err != nil {
		return res, err
	}
	rss, err := c.peakRSSMB()
	if err != nil {
		return res, err
	}
	probes := pr.stop()
	var setupS, rawSetupS []float64
	for _, iv := range setups {
		raw := iv[1].Sub(iv[0]).Seconds()
		rawSetupS = append(rawSetupS, raw)
		setupS = append(setupS, raw*speedBetween(probes, iv[0], iv[1]))
	}
	for i := 0; i < windowSlices; i++ {
		from := win.start.Add(time.Duration(i) * cfg.sliceLen())
		win.speed = append(win.speed, speedBetween(probes, from, from.Add(cfg.sliceLen())))
	}
	res.add("setup_s", "s", median(setupS), len(setupS), setupS)
	summarize(&res, w, cfg, recs, win, rss)
	res.add("raw_setup_s", "s", median(rawSetupS), len(rawSetupS), rawSetupS)

	if w.wal {
		if c, err = rebootAndVerify(&res, w, c, bin, dir, ds); err != nil {
			return res, err
		}
	}
	err = c.stop()
	c = nil
	return res, err
}

// windowSide is what is read at the slice boundaries and around the window.
type windowSide struct {
	start         time.Time
	cpu           []float64 // server CPU seconds at the slices+1 boundaries
	before, after []promSample
	speed         []float64 // per slice, the machine's speed against the reference (probe.go)
}

// measureWindow runs the closed-loop clients through warm-up and window and
// samples the server's CPU time at every slice boundary.
func measureWindow(w workload, cfg runConfig, c *child, ds *dataset) ([]*recorder, windowSide, error) {
	var win windowSide
	conns := make([]conn, clients)
	for i := range conns {
		cn, err := dial(w.proto, c)
		if err != nil {
			return nil, win, err
		}
		defer cn.close()
		conns[i] = cn
	}
	recs := make([]*recorder, clients)
	start := time.Now().Add(cfg.warmup())
	win.start = start
	end := start.Add(cfg.window)
	var wg sync.WaitGroup
	for i := range conns {
		recs[i] = &recorder{slices: make([]sliceRec, windowSlices)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			clientLoop(w, conns[i], newOpStream(w, ds, cfg.seed, i, clients), start, end, cfg.sliceLen(), recs[i])
		}()
	}
	// The clients stop by themselves at end; read errors are reported only
	// after they have.
	var errs []error
	time.Sleep(time.Until(start))
	before, err := c.scrape()
	errs = append(errs, err)
	for i := 0; i <= windowSlices; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * cfg.sliceLen())))
		cpu, err := c.cpuSeconds()
		errs = append(errs, err)
		win.cpu = append(win.cpu, cpu)
	}
	wg.Wait()
	after, err := c.scrape()
	win.before, win.after = before, after
	return recs, win, errors.Join(append(errs, err)...)
}

// summarize turns the clients' tallies into metric rows and applies the
// run's correctness gates.
func summarize(res *workloadResult, w workload, cfg runConfig, recs []*recorder, win windowSide, rss float64) {
	// Times are multiplied and rates divided by the machine's speed in their
	// slice (probe.go); the raw values follow among the extras.
	secs := cfg.sliceLen().Seconds()
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	var opsS, idsS, cpuS, accS, rawOpsS, rawCPUS []float64
	all := make([][]float64, windowSlices)
	rawAll := make([][]float64, windowSlices)
	read := make([][]float64, windowSlices)
	write := make([][]float64, windowSlices)
	var tot sliceRec
	for i, speed := range win.speed {
		var s sliceRec
		for _, r := range recs {
			s.add(r.slices[i])
			read[i] = append(read[i], scaled(r.slices[i].read, speed)...)
			write[i] = append(write[i], scaled(r.slices[i].write, speed)...)
			rawAll[i] = append(append(rawAll[i], r.slices[i].read...), r.slices[i].write...)
		}
		all[i] = append(append(all[i], read[i]...), write[i]...)
		rawOpsS = append(rawOpsS, float64(s.ops)/secs)
		rawCPUS = append(rawCPUS, (win.cpu[i+1]-win.cpu[i])*1e6/float64(max(s.ops, 1)))
		opsS = append(opsS, rawOpsS[i]/speed)
		idsS = append(idsS, float64(s.ids)/secs/speed)
		cpuS = append(cpuS, rawCPUS[i]*speed)
		accS = append(accS, float64(s.trueIDs)/float64(max(s.ids, 1)))
		tot.add(s)
	}
	for _, r := range recs {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, p := range r.problems {
			res.problem("%s", p)
		}
	}
	if tot.ops == 0 || tot.ids == 0 {
		res.problem("the window completed %d requests returning %d ids", tot.ops, tot.ids)
		return
	}

	tail := func(name string, slices [][]float64, p float64) {
		v, per, n, ok := slicedPercentile(slices, p, w.minTail)
		if !ok {
			res.problem("%s: undersized window, %d completions where the percentile rule needs %d", name, n, w.minTail)
			return
		}
		res.add(name, "us", v, n, per)
	}
	res.add("ops_per_s", "1/s", median(opsS), tot.ops, opsS)
	res.add("ids_per_s", "1/s", median(idsS), tot.ids, idsS)
	tail("op_p50_us", all, 0.50)
	tail("op_p99_us", all, 0.99)
	res.add("cpu_us_per_op", "us", median(cpuS), tot.ops, cpuS)
	res.add("peak_rss_mb", "MB", rss, 1, nil)
	accuracy := float64(tot.trueIDs) / float64(tot.ids)
	res.add("accuracy", "share", accuracy, tot.ids, accS)
	if accuracy < w.minAccuracy {
		res.problem("accuracy %.4f is below %.2f", accuracy, w.minAccuracy)
	}

	res.add("machine_speed", "ratio", median(win.speed), len(win.speed), win.speed)
	res.add("raw_ops_per_s", "1/s", median(rawOpsS), tot.ops, rawOpsS)
	tail("raw_op_p50_us", rawAll, 0.50)
	res.add("raw_cpu_us_per_op", "us", median(rawCPUS), tot.ops, rawCPUS)

	// Extras: the issue's per-operation names, for the workloads that have
	// the operation. They are printed and written to result.json, not guarded.
	res.add("failed_share", "share", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Attempted, nil)
	switch w.kind {
	case opReconstruct:
		recall := float64(tot.found) / float64(tot.expected)
		res.add("recon_recall", "share", recall, tot.expected, nil)
		if recall < w.minRecall {
			res.problem("reconstruction recall %.4f is below %.2f", recall, w.minRecall)
		}
	default:
		shortfall := 1 - float64(tot.returned)/float64(tot.requested)
		res.add("sample_shortfall_share", "share", shortfall, tot.requested, nil)
		if shortfall > w.maxShortfall {
			res.problem("sample shortfall %.4f is above %.2f", shortfall, w.maxShortfall)
		}
	}
	if w.kind == opAdd {
		tail("sample_p50_us", read, 0.50)
		tail("sample_p99_us", read, 0.99)
		tail("write_p50_us", write, 0.50)
		tail("write_p99_us", write, 0.99)
	}

	// Scraped once around the window; the traced run reports them as the
	// server layer's own view of where a request's time goes.
	addServerView(res, win)
}

// addServerView adds the server's own counters over the window: the share of
// request time in each pipeline stage, sheds, GC pause and live heap.
func addServerView(res *workloadResult, win windowSide) {
	delta := func(name string, want ...string) float64 {
		return promSum(win.after, name, want...) - promSum(win.before, name, want...)
	}
	add := func(name string, v float64) { res.add(name, perLayerUnit(name), v, 1, nil) }
	total := delta("bst_request_stage_duration_seconds_sum")
	for _, stage := range []string{"admission", "decode", "execute", "encode"} {
		share := 0.0
		if total > 0 {
			share = delta("bst_request_stage_duration_seconds_sum", `stage="`+stage+`"`) / total
		}
		add("server.stage_"+stage+"_share", share)
	}
	add("server.shed_total", delta("bst_requests_shed_total"))
	add("server.gc_pause_ms", delta("bst_go_gc_pause_seconds_total")*1e3)
	add("server.heap_mb", promSum(win.after, "bst_go_heap_alloc_bytes")/(1<<20))
	res.ServerGOMAXPROCS = int(promSum(win.after, "bst_go_gomaxprocs"))
}

// rebootAndVerify is the durability half of mixed_wal: download the live
// bundle, SIGTERM, boot again on the same directory, download again, and
// require that nothing acknowledged was lost. It returns the new child.
func rebootAndVerify(res *workloadResult, w workload, c *child, bin, dir string, ds *dataset) (*child, error) {
	before, err := get("http://" + c.http + "/v1/snapshot")
	if err != nil {
		return c, err
	}
	args := c.args
	if err := c.stop(); err != nil {
		return nil, fmt.Errorf("SIGTERM before the reboot: %w", err)
	}
	t0 := time.Now()
	c, err = startChild(bin, dir, args)
	if err != nil {
		return nil, fmt.Errorf("reboot: %w", err)
	}
	recovery := time.Since(t0)
	after, err := get("http://" + c.http + "/v1/snapshot")
	if err != nil {
		return c, err
	}
	doc, err := get("http://" + c.http + "/v1/stats")
	if err != nil {
		return c, err
	}
	var stats struct {
		Durability struct {
			Replayed    uint64 `json:"replayed_records_at_boot"`
			DroppedTail int64  `json:"dropped_tail_bytes_at_boot"`
		} `json:"durability"`
	}
	if err := json.Unmarshal(doc, &stats); err != nil {
		return c, fmt.Errorf("/v1/stats: %w", err)
	}
	res.add("replay_writes_per_s", "1/s", float64(stats.Durability.Replayed)/recovery.Seconds(), int(stats.Durability.Replayed), nil)
	res.add("recovery_s", "s", recovery.Seconds(), 1, nil)

	if stats.Durability.DroppedTail != 0 {
		res.problem("the reboot dropped %d tail bytes of the log", stats.Durability.DroppedTail)
	}
	if stats.Durability.Replayed == 0 {
		res.problem("the reboot replayed no log records")
	}
	if !bytes.Equal(before, after) {
		res.problem("the snapshot after the reboot (%d bytes) differs from the one before it (%d bytes)", len(after), len(before))
	}
	for _, bundle := range [][]byte{before, after} {
		db, err := setdb.ReadBundle(bytes.NewReader(bundle))
		if err != nil {
			return c, fmt.Errorf("loading a downloaded bundle: %w", err)
		}
		if missing := missingFromShadow(db, ds); missing > 0 {
			res.problem("%d acknowledged ids answer ContainsDynamic false after the reboot", missing)
		}
	}
	return c, nil
}

// missingFromShadow counts the ids of the shadow model (set-up ids plus
// acknowledged adds minus acknowledged removes) that db does not hold. A
// filter has no false negatives, so the count must be zero. Reconstruction is
// not used here: its recall is below 1 at this database size.
func missingFromShadow(db *setdb.DB, ds *dataset) int {
	missing := 0
	for k, key := range ds.keys {
		ds.truth[k].each(func(x uint64) {
			if ok, err := db.ContainsDynamic(key, x); err != nil || !ok {
				missing++
			}
		})
	}
	return missing
}
