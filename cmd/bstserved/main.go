// Command bstserved serves a setdb database over HTTP/JSON — the
// network layer that lets many remote clients hit the lock-free sampling
// and copy-on-write write paths at once.
//
// Usage:
//
//	bstserved                               # empty in-memory db, defaults
//	bstserved -addr :9000 -demo 5000        # preload a "demo" set to curl against
//	bstserved -db sets.db                   # serve a database file
//
// A database has one file, the bundle (sets plus, for a pruned database, its
// tree), and -db boots from it wherever it came from: DB.Save of an ingest
// job, GET /v1/snapshot of a running server, or the newest snap-*.snap of a
// -data-dir.
//
// Endpoints: POST /v1/sample, /v1/reconstruct, /v1/intersection, /v1/add,
// /v1/remove; GET /v1/stats; GET/POST /v1/snapshot and POST /v1/restore
// for backup/replication. See the README's "Serving over HTTP" section
// for request/response schemas and example curl calls.
//
// With -data-dir set, every mutation is written ahead to a checksummed,
// segmented log and acknowledged per the -fsync policy; the database
// survives kill -9 by replaying the newest snapshot plus the WAL tail
// at boot. See the README's "Durability and recovery" section.
//
// With -bin-addr set, the same database is additionally served on a
// second listener speaking the compact binary protocol (internal/wire):
// length-prefixed varint frames, pipelining, credit-based streaming and
// BUSY-shedding admission control. See the README's "Binary wire
// protocol" section.
//
// With -admin-addr set, a third listener serves the operational
// surface: /metrics (Prometheus text exposition), /healthz, /readyz and
// /debug/pprof — kept off the data-plane port on purpose. Logs are
// structured (-log-level, -log-format); requests slower than
// -slow-request are logged at warn with a per-stage breakdown.
//
// The process shuts down gracefully on SIGINT/SIGTERM: both listeners
// stop accepting, idle keep-alive connections are closed immediately,
// and in-flight requests (streams included) get -shutdown-timeout to
// finish before the remaining connections are force-closed. The drain is
// hard-bounded: a client holding a stream open cannot stall the exit
// past the deadline. /readyz flips to 503 the moment the signal lands,
// before the drain starts, so load balancers stop routing new work.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/membership"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/setdb"
	"repro/internal/wal"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "HTTP/JSON listen address")
		binAddr   = flag.String("bin-addr", "", "binary-protocol listen address (empty: disabled)")
		dbPath    = flag.String("db", "", "database file to serve: a bundle written by Save, GET /v1/snapshot or a -data-dir snapshot (empty: start a fresh in-memory database)")
		noSpace   = flag.Uint64("namespace", 1_000_000, "namespace size for a fresh database")
		setSize   = flag.Uint64("setsize", 1000, "design set size for a fresh database")
		accuracy  = flag.Float64("accuracy", 0.9, "design sampling accuracy for a fresh database")
		k         = flag.Int("k", 3, "hash functions for a fresh database")
		pruned    = flag.Bool("pruned", true, "use a pruned tree for a fresh database (grows on demand)")
		backend   = flag.String("backend", "", "dynamic-set membership backend for a fresh database: counting, the one removable backend (default)") // kept for bench/, which passes -backend counting (ROADMAP item 1)
		demo      = flag.Int("demo", 0, "preload a plain set 'demo' with this many random ids (0: none)")
		maxBatch  = flag.Int("max-batch", server.DefaultMaxBatch, "largest buffered sample n / add-remove id batch / reconstruction accepted (0: default)")
		maxSets   = flag.Int("max-batch-sets", server.DefaultMaxBatchSets, "largest number of sets in one batch /v1/add request (0: default)")
		maxStream = flag.Int("max-stream-batch", server.DefaultMaxStreamBatch, "largest streaming (NDJSON) sample n accepted (0: default)")
		maxBody   = flag.Int64("max-body", server.DefaultMaxBodyBytes, "largest request body in bytes (0: default)")
		inflight  = flag.Int("max-inflight", server.DefaultMaxInFlight, "global in-flight request budget across both listeners; beyond it requests are shed (0: default)")
		maxWrites = flag.Int("max-writes", server.DefaultMaxWrites, "in-flight budget for write requests (add/remove) within the global budget (0: default)")
		connWin   = flag.Int("conn-window", server.DefaultConnWindow, "per-connection in-flight window on the binary listener (0: default)")
		shutdown  = flag.Duration("shutdown-timeout", 10*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
		dataDir   = flag.String("data-dir", "", "durability directory (WAL + snapshots); writes are logged before they are acknowledged and the database survives restarts (exclusive with -db)")
		fsync     = flag.String("fsync", "always", "WAL fsync policy with -data-dir: always, never, or a duration (e.g. 100ms) for interval syncing")
		snapEvery = flag.Duration("snapshot-interval", 0, "background snapshot period with -data-dir (0: snapshot only via POST /v1/snapshot)")
		addrFile  = flag.String("addr-file", "", "write the bound listener addresses to this file once serving (http=..., bin=... and admin=... lines); for test harnesses using port 0")
		adminAddr = flag.String("admin-addr", "", "admin listen address serving /metrics, /healthz, /readyz and /debug/pprof (empty: disabled)")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logFormat = flag.String("log-format", "text", "log format: text or json")
		slowReq   = flag.Duration("slow-request", time.Second, "log requests slower than this at warn with per-stage timings (0: disabled)")
		noTrace   = flag.Bool("no-trace", false, "disable request tracing (request IDs, per-stage timings)")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bstserved: %v\n", err)
		os.Exit(1)
	}
	fatalf := func(format string, args ...any) {
		logger.Error(fmt.Sprintf(format, args...))
		os.Exit(1)
	}

	var db *setdb.DB
	var store *wal.Store
	if *dataDir != "" {
		if *dbPath != "" {
			fatalf("-data-dir and -db are exclusive (restore a file into a data dir via POST /v1/restore)")
		}
		policy, interval, err := parseFsync(*fsync)
		if err != nil {
			fatalf("%v", err)
		}
		store, err = wal.Open(*dataDir, func() (*setdb.DB, error) {
			return openDB("", *noSpace, *setSize, *accuracy, *k, *pruned, *backend)
		}, wal.Options{
			Fsync:            policy,
			FsyncInterval:    interval,
			SnapshotInterval: *snapEvery,
			Logger:           logger,
		})
		if err != nil {
			fatalf("%v", err)
		}
		defer store.Close()
		db = store.DB()
		ws := store.Stats()
		logger.Info("durability open", "dir", *dataDir, "fsync", ws.FsyncPolicy,
			"replayed", ws.ReplayedAtBoot, "skipped", ws.SkippedAtBoot,
			"dropped_tail_bytes", ws.DroppedTailBytes)
	} else {
		var err error
		db, err = openDB(*dbPath, *noSpace, *setSize, *accuracy, *k, *pruned, *backend)
		if err != nil {
			fatalf("%v", err)
		}
	}
	bk := db.Stats().Backend
	logger.Info("membership backend", "kind", bk.Kind, "entries", bk.Entries, "bytes", bk.MemoryBytes)
	if *demo > 0 {
		rng := rand.New(rand.NewSource(1))
		ids := make([]uint64, *demo)
		for i := range ids {
			ids[i] = rng.Uint64() % db.Options().Namespace
		}
		if err := db.Add("demo", ids...); err != nil {
			fatalf("preload demo set: %v", err)
		}
		logger.Info("preloaded demo set", "key", "demo", "ids", *demo)
	}

	api := server.New(db, server.Config{
		MaxBatch: *maxBatch, MaxBatchSets: *maxSets, MaxStreamBatch: *maxStream, MaxBodyBytes: *maxBody,
		MaxInFlight: *inflight, MaxWrites: *maxWrites, ConnWindow: *connWin,
		Durability: store,
		Logger:     logger, SlowRequest: *slowReq, TraceDisabled: *noTrace,
	})
	srv := &http.Server{
		Addr:    *addr,
		Handler: api,
		// ReadTimeout bounds a trickled request body the way the
		// handler's per-chunk write deadlines bound a slow reader; no
		// WriteTimeout, which would kill legitimate long NDJSON streams.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Listen explicitly (rather than ListenAndServe) so the bound
	// addresses are known before serving starts — with -addr :0 the
	// kernel picks the port, and -addr-file is how a test harness learns
	// it.
	httpLn, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("%v", err)
	}
	errc := make(chan error, 2)
	go func() {
		logger.Info("serving HTTP/JSON", "addr", httpLn.Addr().String(), "sets", db.Len())
		errc <- srv.Serve(httpLn)
	}()
	binServing := false
	addrs := fmt.Sprintf("http=%s\n", httpLn.Addr())
	if *binAddr != "" {
		ln, err := net.Listen("tcp", *binAddr)
		if err != nil {
			fatalf("binary listener: %v", err)
		}
		binServing = true
		addrs += fmt.Sprintf("bin=%s\n", ln.Addr())
		go func() {
			logger.Info("serving binary protocol", "addr", ln.Addr().String())
			errc <- api.ServeBinary(ln)
		}()
	}
	// The admin plane is deliberately not on errc: it must outlive the
	// data-plane drain (so /readyz reports not-ready and /metrics stays
	// scrapeable during shutdown) and is closed last.
	var adminSrv *http.Server
	if *adminAddr != "" {
		ln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			fatalf("admin listener: %v", err)
		}
		addrs += fmt.Sprintf("admin=%s\n", ln.Addr())
		adminSrv = &http.Server{Handler: api.AdminHandler(), ReadHeaderTimeout: 5 * time.Second}
		go func() {
			logger.Info("serving admin", "addr", ln.Addr().String())
			if err := adminSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("admin listener failed", "error", err)
			}
		}()
	}
	if *addrFile != "" {
		// Temp-and-rename so a reader never sees a partial file.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(addrs), 0o644); err != nil {
			fatalf("writing -addr-file: %v", err)
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			fatalf("writing -addr-file: %v", err)
		}
	}
	// Ready only now: WAL replay (synchronous in wal.Open) is done and
	// every listener is accepting.
	api.SetReady(true)

	select {
	case err := <-errc:
		fatalf("%v", err)
	case <-ctx.Done():
		stop()
		api.SetReady(false)
		logger.Info("signal received; draining", "timeout", (*shutdown).String())
		drain(logger, srv, api, binServing, *shutdown)
		// Collect the listener goroutines' exits; anything but the two
		// clean-close sentinels is a real failure.
		n := 1
		if binServing {
			n = 2
		}
		for i := 0; i < n; i++ {
			if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) && !errors.Is(err, server.ErrBinaryClosed) {
				fatalf("%v", err)
			}
		}
		if adminSrv != nil {
			adminSrv.Close()
		}
		logger.Info("bye")
	}
}

// drain shuts both listeners down within the deadline, force-closing
// whatever is still running when it expires. Closing idle keep-alive
// connections happens immediately (SetKeepAlivesEnabled + Shutdown do it
// for HTTP, ShutdownBinary for the binary side); a stream still mid-
// flight when the deadline hits is cut, deliberately — a slow client
// must not be able to hold the process alive past -shutdown-timeout.
func drain(logger *slog.Logger, srv *http.Server, api *server.Server, binServing bool, timeout time.Duration) {
	sctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	// Stop handing out new keep-alive sessions right away, so connections
	// finishing their current request close instead of going idle.
	srv.SetKeepAlivesEnabled(false)
	done := make(chan struct{}, 2)
	go func() {
		if err := srv.Shutdown(sctx); err != nil {
			// Deadline hit with requests still running: bound the drain by
			// force-closing instead of leaking the listener and hanging.
			logger.Warn("drain deadline exceeded, force-closing HTTP", "error", err)
			srv.Close()
		}
		done <- struct{}{}
	}()
	go func() {
		if binServing {
			if err := api.ShutdownBinary(sctx); err != nil {
				logger.Warn("drain deadline exceeded, force-closed binary connections", "error", err)
			}
		}
		done <- struct{}{}
	}()
	<-done
	<-done
}

// parseFsync maps the -fsync flag onto a wal policy: the two named
// policies pass through, and a duration selects interval syncing with
// that period.
func parseFsync(s string) (wal.FsyncPolicy, time.Duration, error) {
	if d, err := time.ParseDuration(s); err == nil {
		if d <= 0 {
			return "", 0, fmt.Errorf("-fsync interval %v must be positive", d)
		}
		return wal.FsyncInterval, d, nil
	}
	p, err := wal.ParseFsyncPolicy(s)
	return p, 0, err
}

// openDB loads the database file or creates a fresh database from the
// planning flags, which apply only to a fresh one — a file carries its own
// profile, tree and backend kind. The backend name is checked either way.
func openDB(dbPath string, namespace, setSize uint64, accuracy float64, k int, pruned bool, backend string) (*setdb.DB, error) {
	kind, err := membership.ParseKind(backend)
	if err != nil {
		return nil, err
	}
	if dbPath != "" {
		return setdb.Load(dbPath)
	}
	opts, err := setdb.PlanOptions(accuracy, setSize, namespace, k)
	if err != nil {
		return nil, err
	}
	opts.Pruned = pruned
	opts.Backend = kind
	return setdb.Open(opts)
}
