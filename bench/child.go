package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outDir receives everything a run leaves behind: the built server, its data
// directories and logs, result.json and the trace files. It is relative to
// the repository root, which `go run ./bench` is started from.
const outDir = "bench/out"

// buildServer compiles cmd/bstserved from the commit under test. The path is
// fixed, so a second run finds the binary up to date and only pays the check.
func buildServer() (string, error) {
	bin := filepath.Join(outDir, "bin", "bstserved")
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/bstserved").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("building bstserved: %v\n%s", err, out)
	}
	return filepath.Abs(bin)
}

// child is one run of the real bstserved binary on kernel-chosen ports.
type child struct {
	cmd   *exec.Cmd
	args  []string // as given to startChild: everything but -addr-file
	http  string
	bin   string
	admin string
	log   *os.File
	done  chan error // receives cmd.Wait's result once
}

// Every workload's filters are planned for accuracy 0.9 with k = 3 hashes.
const (
	accuracy = 0.9
	hashK    = 3
)

// serverArgs is the command line of a workload's server, minus the binary
// and the address file. Everything not listed keeps bstserved's default: the
// fast hash, a pruned tree, tracing on.
func serverArgs(w workload, dataDir string) []string {
	args := []string{
		"-addr", "127.0.0.1:0", "-bin-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0",
		"-namespace", strconv.FormatUint(w.namespace, 10),
		"-setsize", strconv.FormatUint(w.setSize, 10),
		"-accuracy", strconv.FormatFloat(accuracy, 'g', -1, 64), "-k", strconv.Itoa(hashK),
	}
	if w.wal {
		args = append(args, "-backend", "counting", "-data-dir", dataDir, "-fsync", "100ms")
	}
	return args
}

// startChild launches the server and returns once /readyz answers 200. dir
// holds the address file and the server's log.
func startChild(bin, dir string, args []string) (*child, error) {
	addrFile := filepath.Join(dir, "addrs")
	_ = os.Remove(addrFile) // a reboot reuses dir; a stale file would name dead ports
	logf, err := os.OpenFile(filepath.Join(dir, "server.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	c := &child{args: args, log: logf, done: make(chan error, 1)}
	c.cmd = exec.Command(bin, append([]string{"-addr-file", addrFile}, args...)...)
	c.cmd.Stdout, c.cmd.Stderr = logf, logf
	if err := c.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() { c.done <- c.cmd.Wait() }()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(addrFile); err == nil {
			for _, line := range strings.Fields(string(data)) {
				name, addr, _ := strings.Cut(line, "=")
				switch name {
				case "http":
					c.http = addr
				case "bin":
					c.bin = addr
				case "admin":
					c.admin = addr
				}
			}
			if resp, err := http.Get("http://" + c.admin + "/readyz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return c, nil
				}
			}
		}
		select {
		case err := <-c.done:
			logf.Close()
			return nil, fmt.Errorf("bstserved %s exited before it was ready (%v); see %s", strings.Join(c.args, " "), err, logf.Name())
		case <-time.After(2 * time.Millisecond):
		}
	}
	c.kill()
	return nil, fmt.Errorf("bstserved %s did not become ready in 60s; see %s", strings.Join(c.args, " "), logf.Name())
}

// commandLine is what the report echoes for this server.
func (c *child) commandLine() string { return strings.Join(c.cmd.Args, " ") }

// stop asks for the graceful drain with SIGTERM and waits for the exit,
// killing the process if the drain outlasts its own 10 s bound.
func (c *child) stop() error {
	defer c.log.Close()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-c.done:
		return err
	case <-time.After(20 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
		return errors.New("bstserved ignored SIGTERM for 20s and was killed")
	}
}

// kill is the error-path teardown: no drain, but the process is reaped.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.done
	c.log.Close()
}

// cpuSeconds is the user+system CPU time the server process has used so far,
// from fields 14 and 15 of /proc/<pid>/stat in USER_HZ ticks (100 per second
// on every Linux ABI Go runs on).
func (c *child) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces.
	rest := data[bytes.LastIndexByte(data, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", data)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) / 100, nil
}

// peakRSSMB is the server's resident-set high-water mark (VmHWM).
func (c *child) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// get fetches one admin- or data-plane document in full.
func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// promSample is one line of the /metrics exposition.
type promSample struct {
	name   string
	labels string // the raw {…} part, empty when there is none
	value  float64
}

// scrape reads /metrics into its samples; comment lines are dropped.
func (c *child) scrape() ([]promSample, error) {
	body, err := get("http://" + c.admin + "/metrics")
	if err != nil {
		return nil, err
	}
	var out []promSample
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		s := promSample{name: line[:sp], value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			s.name, s.labels = s.name[:i], s.name[i:]
		}
		out = append(out, s)
	}
	return out, nil
}

// promSum adds up every sample of one family whose labels hold all of want.
func promSum(samples []promSample, name string, want ...string) float64 {
	var sum float64
next:
	for _, s := range samples {
		if s.name != name {
			continue
		}
		for _, w := range want {
			if !strings.Contains(s.labels, w) {
				continue next
			}
		}
		sum += s.value
	}
	return sum
}
