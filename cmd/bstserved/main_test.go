package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/setdb"
	"repro/internal/wal"
	"repro/internal/wire"
)

// call POSTs body to a served endpoint and returns the reply's bytes.
func call(t *testing.T, ts *httptest.Server, path, body string) []byte {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", path, body, resp.StatusCode, raw)
	}
	return raw
}

// TestServedSnapshotBoots: the file a server writes is the file a server
// boots from. A WAL-backed server, full tree and pruned, ingests plain and
// counting keys over HTTP and then adds ids that grow the pruned
// tree; the body of GET /v1/snapshot and the snap-*.snap that POST
// /v1/snapshot leaves in the data directory each go to openDB as -db would
// hand them over, and the booted server answers /v1/reconstruct for every
// key with the source's bytes and serves uniform draws from the same
// positives, the grown ids among them. (The pre-bundle loader under -db read
// neither file: `bad magic "BSTBND"`.)
func TestServedSnapshotBoots(t *testing.T) {
	for _, pruned := range []bool{false, true} {
		for _, backend := range []string{"bloom", "counting"} {
			t.Run(fmt.Sprintf("pruned=%v/%s", pruned, backend), func(t *testing.T) {
				dynamic, kind := backend != "bloom", backend
				if !dynamic {
					kind = "" // a plain key is Bloom-backed whatever the database's dynamic backend
				}
				dir := t.TempDir()
				store, err := wal.Open(dir, func() (*setdb.DB, error) {
					return openDB("", 100_000, 256, 0.9, 3, pruned, kind)
				}, wal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				src := httptest.NewServer(server.New(store.DB(), server.Config{Durability: store}))
				defer src.Close()

				keys := []string{"a", "b", "c"}
				grown := map[string]uint64{}
				for i, key := range keys {
					call(t, src, "/v1/add", fmt.Sprintf(`{"key":%q,"ids":[%d,%d,%d],"dynamic":%v}`,
						key, 10+i, 20_000+i, 40_000+i, dynamic))
				}
				nodes := store.DB().Tree().Nodes()
				for i, key := range keys {
					grown[key] = uint64(70_000 + 9_000*i)
					call(t, src, "/v1/add", fmt.Sprintf(`{"key":%q,"ids":[%d],"dynamic":%v}`, key, grown[key], dynamic))
				}
				if pruned && store.DB().Tree().Nodes() == nodes {
					t.Fatal("the late ids grew no node: the test needs them to")
				}

				resp, err := http.Get(src.URL + "/v1/snapshot")
				if err != nil {
					t.Fatal(err)
				}
				downloaded := filepath.Join(t.TempDir(), "downloaded.snap")
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("GET /v1/snapshot: status %d, err %v", resp.StatusCode, err)
				}
				if err := os.WriteFile(downloaded, body, 0o644); err != nil {
					t.Fatal(err)
				}
				var trig server.SnapshotTriggerResponse
				if err := json.Unmarshal(call(t, src, "/v1/snapshot", ""), &trig); err != nil {
					t.Fatal(err)
				}

				for name, file := range map[string]string{
					"GET /v1/snapshot": downloaded,
					"the WAL's snap":   filepath.Join(dir, trig.Snapshot.File),
				} {
					db, err := openDB(file, 0, 0, 0, 0, false, "")
					if err != nil {
						t.Fatalf("openDB(%s): %v", name, err)
					}
					booted := httptest.NewServer(server.New(db, server.Config{}))
					defer booted.Close()
					for _, key := range keys {
						req := fmt.Sprintf(`{"key":%q}`, key)
						want := call(t, src, "/v1/reconstruct", req)
						if got := call(t, booted, "/v1/reconstruct", req); !bytes.Equal(got, want) {
							t.Fatalf("%s: /v1/reconstruct of %q is %s, the source's is %s", name, key, got, want)
						}
						var recon server.ReconstructResponse
						if err := json.Unmarshal(want, &recon); err != nil {
							t.Fatal(err)
						}
						if !slices.Contains(recon.IDs, grown[key]) {
							t.Fatalf("%s: the reconstruction of %q lacks %d, added after the tree was built: %v", name, key, grown[key], recon.IDs)
						}
						var draws server.SampleResponse
						if err := json.Unmarshal(call(t, booted, "/v1/sample", fmt.Sprintf(`{"key":%q,"n":200,"uniform":true}`, key)), &draws); err != nil {
							t.Fatal(err)
						}
						if draws.Returned != 200 {
							t.Fatalf("%s: %d of 200 uniform draws from %q returned", name, draws.Returned, key)
						}
						for _, id := range draws.IDs {
							if ok, _ := store.DB().Contains(key, id); !ok {
								t.Fatalf("%s: a uniform draw from %q returned %d, which the source does not answer for", name, key, id)
							}
						}
						// Four positives and at most the odd false one: 200
						// exactly uniform draws all miss a given id with
						// probability (5/6)²⁰⁰ < 10⁻¹⁵.
						if !slices.Contains(draws.IDs, grown[key]) {
							t.Fatalf("%s: 200 uniform draws from %q never returned %d", name, key, grown[key])
						}
					}
				}
			})
		}
	}
}

// TestDrainBoundedWithStreamsMidFlight is the shutdown regression test:
// with an idle HTTP keep-alive connection open, an HTTP NDJSON stream
// and a binary stream both mid-flight, drain() must return within the
// deadline (force-closing the streams) instead of hanging until the
// slow clients go away — the bug this fixes left the process waiting on
// idle keep-alives and unbounded streams after SIGTERM.
func TestDrainBoundedWithStreamsMidFlight(t *testing.T) {
	opts, err := setdb.PlanOptions(0.9, 256, 100_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts.Pruned = true
	db, err := setdb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, 256)
	for i := range ids {
		ids[i] = uint64(i * 17 % 100_000)
	}
	if err := db.Add("demo", ids...); err != nil {
		t.Fatal(err)
	}
	api := server.New(db, server.Config{StreamChunk: 8})

	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: api}
	go func() { _ = srv.Serve(httpLn) }()
	binLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = api.ServeBinary(binLn) }()

	// 1. An idle HTTP keep-alive connection: complete one request, keep
	// the connection open and silent.
	idle, err := net.Dial("tcp", httpLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	fmt.Fprintf(idle, "GET /v1/stats HTTP/1.1\r\nHost: x\r\n\r\n")
	idleR := bufio.NewReader(idle)
	if resp, err := http.ReadResponse(idleR, nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	// 2. An HTTP NDJSON stream mid-flight: request a large streamed batch
	// and then stop reading, so the handler blocks on the window.
	slow, err := net.Dial("tcp", httpLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	body := `{"key":"demo","n":1000000,"stream":true}`
	fmt.Fprintf(slow, "POST /v1/sample HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)

	// 3. A binary stream parked on credit.
	bin, err := net.Dial("tcp", binLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()
	req := wire.SampleReq{Key: "demo", N: 100_000, Credit: 0}.Encode(nil, true)
	if err := wire.WriteFrame(bin, wire.OpSampleStream, 0, 1, req); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let all three connections settle in

	start := time.Now()
	done := make(chan struct{})
	go func() {
		drain(obs.NopLogger(), srv, api, true, 300*time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("drain hung past its deadline with streams mid-flight")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("drain took %v, want ≲300ms + teardown slack", elapsed)
	}

	// Every connection must now be dead: reads on all three fail fast
	// rather than timing out.
	for name, conn := range map[string]net.Conn{"idle-http": idle, "stream-http": slow, "binary": bin} {
		_ = conn.SetReadDeadline(time.Now().Add(1 * time.Second))
		buf := make([]byte, 4096)
		dead := false
		for i := 0; i < 1000; i++ {
			if _, err := conn.Read(buf); err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					break
				}
				dead = true
				break
			}
		}
		if !dead {
			t.Errorf("%s connection still alive after bounded drain", name)
		}
	}
}

// build compiles bstserved into a temporary directory and returns its path.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bstserved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestAddrFileIsWritten: -addr-file is written whole once the listeners are
// bound, and a write that fails leaves no .tmp beside its target (here a
// directory, which the rename cannot replace) and stops the server.
func TestAddrFileIsWritten(t *testing.T) {
	bin, dir := build(t), t.TempDir()
	taken := filepath.Join(dir, "taken")
	if err := os.Mkdir(taken, 0o755); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", taken).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || !strings.Contains(string(out), "-addr-file") {
		t.Fatalf("-addr-file onto a directory: err %v, want a non-zero exit naming the flag\n%s", err, out)
	}
	if _, err := os.Stat(taken + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a failed -addr-file write left its .tmp behind (%v)", err)
	}

	addrs := filepath.Join(dir, "addrs")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-bin-addr", "127.0.0.1:0", "-addr-file", addrs)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cmd.Process.Kill(); _ = cmd.Wait() }()
	var data []byte
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if data, err = os.ReadFile(addrs); err == nil || time.Now().After(deadline) {
			break
		}
	}
	if err != nil {
		t.Fatalf("-addr-file never appeared: %v", err)
	}
	lines := strings.Fields(string(data))
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "http=127.0.0.1:") || !strings.HasPrefix(lines[1], "bin=127.0.0.1:") {
		t.Fatalf("-addr-file holds %q", data)
	}
	resp, err := http.Get("http://" + strings.TrimPrefix(lines[0], "http=") + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("the address -addr-file names answered %d", resp.StatusCode)
	}
	if _, err := os.Stat(addrs + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("-addr-file left its .tmp behind (%v)", err)
	}
}

// TestBackendCuckooRefused: the backend that served removed ids is gone, and
// asking for it is an error that names it, before anything listens.
func TestBackendCuckooRefused(t *testing.T) {
	out, err := exec.Command(build(t), "-backend", "cuckoo", "-addr", "127.0.0.1:0").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("bstserved -backend cuckoo: err %v, want a non-zero exit\n%s", err, out)
	}
	// The logger quotes the message, so its quotes come back escaped.
	if !strings.Contains(string(out), "cuckoo") || !strings.Contains(string(out), "was removed") {
		t.Fatalf("bstserved -backend cuckoo printed %q, want the refusal by name", out)
	}
}

// flagTokens lists what looks like a command-line flag in text: a dash and a
// lower-case name after a space, a backquote or a parenthesis ("kill -9" and
// "curl -X" are not).
func flagTokens(text string) []string {
	var out []string
	for _, m := range regexp.MustCompile("(?m)(?:^|[ `(])(-[a-z][a-z-]*)").FindAllStringSubmatch(text, -1) {
		if !slices.Contains(out, m[1]) {
			out = append(out, m[1])
		}
	}
	return out
}

// TestFlagsOnEverySurface holds `bstserved -h` — the built binary's, not a
// reading of main.go — to the two places that describe it, both ways: every
// flag is in README, every flag-looking token of README is a flag of
// bstserved or of another tool named here, and every one in main.go's usage
// comment is a flag. A flag that is deleted (-ids, with the loader it fed) or
// added and not documented fails here rather than being found by eye.
func TestFlagsOnEverySurface(t *testing.T) {
	help, _ := exec.Command(build(t), "-h").CombinedOutput() // the exit status of -h is not the point
	var flags []string
	for _, m := range regexp.MustCompile(`(?m)^  (-[a-z][a-z-]*)`).FindAllStringSubmatch(string(help), -1) {
		flags = append(flags, m[1])
	}
	if len(flags) != 27 || slices.Contains(flags, "-ids") {
		t.Fatalf("bstserved -h lists %d flags, want 27 without -ids: %v", len(flags), flags)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	usage, _, _ := strings.Cut(string(src), "\npackage main")
	// go test, bench/, bstbench and curl, in that order.
	otherTools := strings.Fields("-bench -cpu -run  -compare -trace -workload  -csv -exp -full -list -seed  -d -o")

	documented := flagTokens(string(readme))
	for _, f := range flags {
		if !slices.Contains(documented, f) {
			t.Errorf("README does not mention %s", f)
		}
	}
	for _, f := range documented {
		if !slices.Contains(flags, f) && !slices.Contains(otherTools, f) {
			t.Errorf("README mentions %s, which is neither a flag of bstserved nor a listed flag of another tool", f)
		}
	}
	for _, f := range flagTokens(usage) {
		if !slices.Contains(flags, f) {
			t.Errorf("main.go's usage comment mentions %s, which bstserved -h does not list", f)
		}
	}
}
