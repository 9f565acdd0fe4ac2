package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/wire"
)

// requestTimeout bounds one round trip; a request that outlasts it counts as
// failed, and so misses any latency a user would accept.
const requestTimeout = 10 * time.Second

// conn is one closed-loop client's persistent connection. Returned id slices
// alias a buffer the next call on the same conn overwrites.
type conn interface {
	sample(key string, n int, dynamic bool) ([]uint64, error)
	reconstruct(key string) ([]uint64, error)
	add(key string, ids []uint64) error
	remove(key string, ids []uint64) error
	close()
}

func dial(proto string, c *child) (conn, error) {
	if proto == "bin" {
		wc, err := wire.Dial(c.bin)
		if err != nil {
			return nil, err
		}
		wc.Timeout = requestTimeout
		return binConn{wc}, nil
	}
	nc, err := net.Dial("tcp", c.http)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: nc, host: c.http, br: bufio.NewReaderSize(nc, 64<<10), bw: bufio.NewWriterSize(nc, 4<<10)}, nil
}

// binConn speaks the binary protocol through the repository's own client,
// which is what a user of that protocol links against. Retries stay off: a
// shed request is a failure here, not something to hide.
type binConn struct{ c *wire.Client }

func (b binConn) sample(key string, n int, dynamic bool) ([]uint64, error) {
	return b.c.Sample(key, n, wire.SampleOpts{Dynamic: dynamic})
}
func (b binConn) reconstruct(key string) ([]uint64, error) { return b.c.Reconstruct(key, false) }
func (b binConn) add(key string, ids []uint64) error {
	_, err := b.c.Add(wire.AddSet{Key: key, IDs: ids, Dynamic: true})
	return err
}
func (b binConn) remove(key string, ids []uint64) error {
	_, err := b.c.Remove(key, ids)
	return err
}
func (b binConn) close() { b.c.Close() }

// httpConn is a keep-alive HTTP/1.1 client with the request written by hand
// and the reply parsed by net/http. It does what http.Client does on the
// wire with less generator CPU, which on a two-core box is CPU the server
// under test gets instead.
type httpConn struct {
	c    net.Conn
	host string
	br   *bufio.Reader
	bw   *bufio.Writer
	req  []byte
	body bytes.Buffer
	ids  []uint64
}

func (h *httpConn) post(path string) error {
	if err := h.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return err
	}
	fmt.Fprintf(h.bw, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, h.host, len(h.req))
	h.bw.Write(h.req)
	if err := h.bw.Flush(); err != nil {
		return err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return err
	}
	h.body.Reset()
	_, err = io.Copy(&h.body, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(h.body.Bytes()))
	}
	return nil
}

// postIDs sends the request in h.req and returns the reply's "ids" array.
func (h *httpConn) postIDs(path string) ([]uint64, error) {
	if err := h.post(path); err != nil {
		return nil, err
	}
	var err error
	h.ids, err = parseIDs(h.body.Bytes(), h.ids[:0])
	return h.ids, err
}

// sampleJSON appends the body of a POST /v1/sample. Keys are the generator's
// own k00000 names, so nothing needs escaping.
func sampleJSON(dst []byte, key string, n int, dynamic bool) []byte {
	dst = append(dst, `{"key":"`...)
	dst = append(dst, key...)
	dst = append(dst, `","n":`...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	if dynamic {
		dst = append(dst, `,"dynamic":true`...)
	}
	return append(dst, '}')
}

// reconstructJSON appends the body of a POST /v1/reconstruct.
func reconstructJSON(dst []byte, key string) []byte {
	dst = append(dst, `{"key":"`...)
	dst = append(dst, key...)
	return append(dst, `"}`...)
}

func (h *httpConn) sample(key string, n int, dynamic bool) ([]uint64, error) {
	h.req = sampleJSON(h.req[:0], key, n, dynamic)
	return h.postIDs("/v1/sample")
}

func (h *httpConn) reconstruct(key string) ([]uint64, error) {
	h.req = reconstructJSON(h.req[:0], key)
	return h.postIDs("/v1/reconstruct")
}

func (h *httpConn) add(string, []uint64) error { return errors.New("the HTTP workloads do not write") }
func (h *httpConn) remove(string, []uint64) error {
	return errors.New("the HTTP workloads do not write")
}
func (h *httpConn) close() { h.c.Close() }

// parseIDs appends the unsigned integers of the reply's "ids":[…] member to
// dst. The replies are the server's own fixed-shape JSON, so the scan needs
// no general parser; anything but digits and commas inside the array is an
// error, as is a reply without the member.
func parseIDs(body []byte, dst []uint64) ([]uint64, error) {
	i := bytes.Index(body, []byte(`"ids":[`))
	if i < 0 {
		return dst, fmt.Errorf("reply has no ids array: %.80q", body)
	}
	var x uint64
	digits := false
	for _, c := range body[i+len(`"ids":[`):] {
		switch {
		case c >= '0' && c <= '9':
			x, digits = x*10+uint64(c-'0'), true
		case c == ',' && digits:
			dst, x, digits = append(dst, x), 0, false
		case c == ']':
			if digits {
				dst = append(dst, x)
			}
			return dst, nil
		default:
			return dst, fmt.Errorf("unexpected %q in ids array", c)
		}
	}
	return dst, errors.New("ids array is not closed")
}
