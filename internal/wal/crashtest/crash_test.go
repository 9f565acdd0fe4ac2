// Package crashtest is the durability layer's fault-injection harness:
// it runs a real bstserved binary with -data-dir, kills it with SIGKILL
// at randomized points mid-ingest, restarts it on the same directory,
// and asserts the recovered database matches a shadow model
// byte-for-byte — for every membership backend.
//
// The byte-equality argument: with -fsync always an acknowledged write
// is durable, the WAL's record order is the server's apply order (both
// happen under one mutex), and the ingest here keeps exactly one
// request outstanding — so the recovered database must equal a fresh
// database that applied the acknowledged writes in order. The one
// in-flight write at kill time is indeterminate (applied-but-unacked is
// possible), so the comparison accepts either shadow or shadow+pending.
package crashtest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/setdb"
	"repro/internal/wire"
)

var bstserved string // path to the built binary, set by TestMain

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "crashtest-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	bstserved = filepath.Join(dir, "bstserved")
	out, err := exec.Command("go", "build", "-o", bstserved, "repro/cmd/bstserved").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "building bstserved: %v\n%s", err, out)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// The planning flags the server is started with; the shadow database
// must be built from the exact same profile or the bytes cannot match.
const (
	namespace = 100_000
	setSize   = 200
	accuracy  = 0.9
	hashK     = 3
)

func shadowOptions(t *testing.T, backend membership.Kind) setdb.Options {
	t.Helper()
	opts, err := setdb.PlanOptions(accuracy, setSize, namespace, hashK)
	if err != nil {
		t.Fatalf("PlanOptions: %v", err)
	}
	opts.Pruned = true
	opts.Backend = backend
	return opts
}

// proc is one run of the bstserved binary.
type proc struct {
	cmd      *exec.Cmd
	httpAddr string
	binAddr  string
}

func startServer(t *testing.T, dataDir string, backend membership.Kind) *proc {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addrs")
	cmd := exec.Command(bstserved,
		"-addr", "127.0.0.1:0",
		"-bin-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-data-dir", dataDir,
		"-fsync", "always",
		"-namespace", fmt.Sprint(namespace),
		"-setsize", fmt.Sprint(setSize),
		"-accuracy", fmt.Sprint(accuracy),
		"-k", fmt.Sprint(hashK),
		"-backend", string(backend),
	)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting bstserved: %v", err)
	}
	p := &proc{cmd: cmd}
	deadline := time.Now().Add(15 * time.Second)
	for {
		data, err := os.ReadFile(addrFile)
		if err == nil {
			for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
				if a, ok := strings.CutPrefix(line, "http="); ok {
					p.httpAddr = a
				}
				if a, ok := strings.CutPrefix(line, "bin="); ok {
					p.binAddr = a
				}
			}
			if p.httpAddr != "" && p.binAddr != "" {
				return p
			}
		}
		if time.Now().After(deadline) {
			p.kill(t)
			t.Fatal("bstserved did not publish its addresses in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (p *proc) kill(t *testing.T) {
	t.Helper()
	_ = p.cmd.Process.Kill() // SIGKILL: no cleanup, no final fsync
	_ = p.cmd.Wait()
}

func (p *proc) url(path string) string { return "http://" + p.httpAddr + path }

// postWrite sends one write as its own request — one WAL record — and
// returns whether the server acknowledged it.
func postWrite(client *http.Client, p *proc, w setdb.Write) error {
	var path string
	var body any
	if w.Remove {
		path = "/v1/remove"
		body = map[string]any{"key": w.Key, "ids": w.IDs}
	} else {
		path = "/v1/add"
		body = map[string]any{"key": w.Key, "ids": w.IDs, "dynamic": w.Dynamic}
	}
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := client.Post(p.url(path), "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return &statusError{path: path, status: resp.Status, body: string(msg)}
	}
	return nil
}

// statusError is a structured HTTP rejection — the server was alive
// enough to answer, so it cannot be blamed on the kill.
type statusError struct{ path, status, body string }

func (e *statusError) Error() string {
	return fmt.Sprintf("%s: %s: %s", e.path, e.status, e.body)
}

// fetchBundle downloads the server's live restore bundle.
func fetchBundle(client *http.Client, p *proc) ([]byte, error) {
	resp, err := client.Get(p.url("/v1/snapshot"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/snapshot: %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// shadowBundle builds a fresh database, applies writes in order (one
// batch per write, matching the server), and serializes it.
func shadowBundle(t *testing.T, backend membership.Kind, writes []setdb.Write) []byte {
	t.Helper()
	db, err := setdb.Open(shadowOptions(t, backend))
	if err != nil {
		t.Fatalf("shadow Open: %v", err)
	}
	for i, w := range writes {
		if err := db.ApplyBatch([]setdb.Write{w}); err != nil {
			t.Fatalf("shadow apply %d (%+v): %v", i, w, err)
		}
	}
	var buf bytes.Buffer
	if _, err := db.SnapshotView().WriteBundleTo(&buf); err != nil {
		t.Fatalf("shadow WriteBundleTo: %v", err)
	}
	return buf.Bytes()
}

// verifyRecovered compares the running server's state against the
// shadow. A pending write (in flight at kill time) may or may not have
// landed; the winning interpretation is returned so the caller can fold
// it into the acked history.
func verifyRecovered(t *testing.T, client *http.Client, p *proc, backend membership.Kind, acked []setdb.Write, pending *setdb.Write) bool {
	t.Helper()
	got, err := fetchBundle(client, p)
	if err != nil {
		t.Fatalf("downloading recovered bundle: %v", err)
	}
	if bytes.Equal(got, shadowBundle(t, backend, acked)) {
		return false
	}
	if pending != nil {
		if bytes.Equal(got, shadowBundle(t, backend, append(append([]setdb.Write{}, acked...), *pending))) {
			return true
		}
	}
	t.Fatalf("recovered state (%d bytes) matches neither the %d acked writes nor acked+pending", len(got), len(acked))
	return false
}

// writeGen produces the deterministic mixed workload, tracking which
// dynamic ids are safely removable (acked adds only).
type writeGen struct {
	rng       *rand.Rand
	next      uint64
	dynamic   bool
	removable map[string][]uint64
}

func newWriteGen(seed int64, dynamic bool) *writeGen {
	return &writeGen{rng: rand.New(rand.NewSource(seed)), dynamic: dynamic, removable: map[string][]uint64{}}
}

func (g *writeGen) ids(n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = g.next % namespace
		g.next++
	}
	return ids
}

func (g *writeGen) gen() setdb.Write {
	if g.dynamic {
		switch g.rng.Intn(4) {
		case 0, 1: // dynamic add
			return setdb.Write{Key: fmt.Sprintf("d%d", g.rng.Intn(5)), IDs: g.ids(4), Dynamic: true}
		case 2: // dynamic remove, when something is removable
			for key, avail := range g.removable {
				if len(avail) >= 2 {
					w := setdb.Write{Key: key, IDs: avail[:2], Dynamic: true, Remove: true}
					g.removable[key] = avail[2:]
					return w
				}
			}
		}
	}
	return setdb.Write{Key: fmt.Sprintf("p%d", g.rng.Intn(7)), IDs: g.ids(8)}
}

// acked records a successfully acknowledged write, unlocking its ids
// for future removal.
func (g *writeGen) acked(w setdb.Write) {
	if w.Dynamic && !w.Remove {
		g.removable[w.Key] = append(g.removable[w.Key], w.IDs...)
	}
}

// ingestUntilKilled hammers single-outstanding writes while a timer
// SIGKILLs the server at a randomized point. It returns the acked
// writes and the single indeterminate in-flight write. A structured
// HTTP error response (the server is alive and rejecting) is a bug and
// fails the test; only transport errors are attributed to the kill.
func ingestUntilKilled(t *testing.T, client *http.Client, p *proc, g *writeGen, killAfter time.Duration) (acked []setdb.Write, pending *setdb.Write) {
	t.Helper()
	killed := make(chan struct{})
	timer := time.AfterFunc(killAfter, func() {
		p.kill(t)
		close(killed)
	})
	defer timer.Stop()
	for i := 0; i < 500_000; i++ {
		w := g.gen()
		if err := postWrite(client, p, w); err != nil {
			if errors.As(err, new(*statusError)) {
				t.Fatalf("server rejected a write while alive: %v", err)
			}
			<-killed // wait for the reap so the data dir is quiescent
			return acked, &w
		}
		g.acked(w)
		acked = append(acked, w)
	}
	t.Fatal("ingest outlived the kill timer")
	return nil, nil
}

// durabilityStats pulls the durability section of /v1/stats.
func durabilityStats(t *testing.T, client *http.Client, p *proc) map[string]any {
	t.Helper()
	resp, err := client.Get(p.url("/v1/stats"))
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer resp.Body.Close()
	var doc struct {
		Durability map[string]any `json:"durability"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if doc.Durability == nil {
		t.Fatal("/v1/stats has no durability section on a -data-dir server")
	}
	return doc.Durability
}

// appendGarbage writes junk to the tail of the newest WAL segment —
// the torn-tail shape recovery must CRC-reject without refusing the
// intact prefix.
func appendGarbage(t *testing.T, dataDir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dataDir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("finding WAL segments: %v (%d found)", err, len(segs))
	}
	newest := segs[len(segs)-1]
	f, err := os.OpenFile(newest, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	junk := make([]byte, 37)
	for i := range junk {
		junk[i] = byte(i*7 + 13)
	}
	if _, err := f.Write(junk); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash injection runs real processes; skipped in -short")
	}
	backends := []struct {
		kind    membership.Kind
		dynamic bool
	}{
		{membership.KindBloom, false},
		{membership.KindCounting, true},
	}
	for _, b := range backends {
		b := b
		t.Run(string(b.kind), func(t *testing.T) {
			t.Parallel()
			client := &http.Client{Timeout: 10 * time.Second}
			dataDir := t.TempDir()
			g := newWriteGen(int64(len(b.kind))*7919+1, b.dynamic)
			rng := rand.New(rand.NewSource(42))
			var acked []setdb.Write
			var pending *setdb.Write // in flight at the last kill; indeterminate

			const rounds = 3
			for round := 0; round < rounds; round++ {
				p := startServer(t, dataDir, b.kind)
				if round > 0 {
					// The previous round's crash must have lost nothing
					// acknowledged.
					if verifyRecovered(t, client, p, b.kind, acked, pending) {
						acked = append(acked, *pending)
					}
					pending = nil
					ds := durabilityStats(t, client, p)
					if ds["fsync_policy"] != "always" {
						t.Fatalf("fsync_policy = %v, want always", ds["fsync_policy"])
					}
					if replayed, _ := ds["replayed_records_at_boot"].(float64); replayed == 0 && len(acked) > 0 {
						t.Fatal("no records replayed at boot despite acked writes")
					}
					if round == 2 {
						// Round 1's crash was followed by torn-tail garbage.
						if dropped, _ := ds["dropped_tail_bytes_at_boot"].(float64); dropped == 0 {
							t.Fatal("torn tail bytes were not dropped at boot")
						}
					}
				}
				if round == 1 {
					// Snapshot mid-history: later recoveries must compose
					// snapshot + remaining WAL.
					resp, err := client.Post(p.url("/v1/snapshot"), "application/json", nil)
					if err != nil {
						t.Fatalf("POST /v1/snapshot: %v", err)
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("POST /v1/snapshot: %s", resp.Status)
					}
				}
				roundAcked, roundPending := ingestUntilKilled(t, client, p, g, time.Duration(30+rng.Intn(120))*time.Millisecond)
				acked = append(acked, roundAcked...)
				pending = roundPending
				if round == 1 {
					appendGarbage(t, dataDir)
				}
			}

			// Final recovery: verify, then exercise the binary listener on
			// the recovered database.
			p := startServer(t, dataDir, b.kind)
			defer p.kill(t)
			if verifyRecovered(t, client, p, b.kind, acked, pending) {
				acked = append(acked, *pending)
			}
			bc, err := wire.Dial(p.binAddr)
			if err != nil {
				t.Fatalf("dialing binary listener: %v", err)
			}
			defer bc.Close()
			w := setdb.Write{Key: "after-recovery", IDs: g.ids(8)}
			if _, err := bc.Add(wire.AddSet{Key: w.Key, IDs: w.IDs}); err != nil {
				t.Fatalf("binary add after recovery: %v", err)
			}
			acked = append(acked, w)
			verifyRecovered(t, client, p, b.kind, acked, nil)
		})
	}
}
