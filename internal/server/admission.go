package server

import (
	"bufio"
	"io"
	"sync/atomic"
)

// gate is a non-blocking counting semaphore: the admission-control
// primitive. tryAcquire never waits — admission control's contract is
// that overload turns into immediate sheds, not queues, so there is
// deliberately no blocking acquire.
type gate struct{ ch chan struct{} }

func newGate(n int) *gate { return &gate{ch: make(chan struct{}, n)} }

func (g *gate) tryAcquire() bool {
	select {
	case g.ch <- struct{}{}:
		return true
	default:
		return false
	}
}

func (g *gate) release() { <-g.ch }

// inUse reports the current occupancy (point-in-time, for stats).
func (g *gate) inUse() int { return len(g.ch) }

// admit passes one request through the admission budgets of both
// listeners, cheapest first: the per-connection window (conn, the
// binary connection's in-flight count; nil over HTTP), the global
// budget, then — for write endpoints — the write sub-budget. The window
// goes first so one connection's burst can never consume global slots it
// would only be shed from anyway (and only the connection's reader
// goroutine admits, so its check-then-add cannot overshoot). It returns
// "" when admitted — the caller owes a release — or the name of the
// budget that refused.
func (s *Server) admit(ep *endpoint, conn *atomic.Int32) (refused string) {
	if conn != nil && int(conn.Load()) >= s.cfg.ConnWindow {
		return "conn window"
	}
	if !s.inflight.tryAcquire() {
		return "global budget"
	}
	if ep.isWrite && !s.writeGate.tryAcquire() {
		s.inflight.release()
		return "write budget"
	}
	if conn != nil {
		conn.Add(1)
	}
	return ""
}

// release returns what admit took.
func (s *Server) release(ep *endpoint, conn *atomic.Int32) {
	if conn != nil {
		conn.Add(-1)
	}
	if ep.isWrite {
		s.writeGate.release()
	}
	s.inflight.release()
}

// newBufReader sizes the per-connection read buffer: large enough to
// take a whole pipelined burst in one syscall, small enough that ten
// thousand idle connections stay cheap.
func newBufReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, 64<<10) }
