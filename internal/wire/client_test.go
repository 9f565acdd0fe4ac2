package wire

import (
	"errors"
	"net"
	"slices"
	"testing"
)

// shedServer answers the first shed requests with OpBusy frames, then a
// SampleResult, echoing each request's id. It exercises exactly the
// shape admission control produces: the request did no work, the client
// may safely send it again.
func shedServer(t *testing.T, conn net.Conn, sheds int) {
	t.Helper()
	go func() {
		defer conn.Close()
		for {
			h, _, err := ReadFrame(conn, 0)
			if err != nil {
				return // client closed
			}
			if sheds > 0 {
				sheds--
				_ = WriteFrame(conn, OpBusy, 0, h.RequestID, nil)
				continue
			}
			body := SampleResult{Requested: 2, IDs: []uint64{4, 9}}.Encode(nil)
			_ = WriteFrame(conn, OpSampleResult, 0, h.RequestID, body)
		}
	}()
}

func TestClientBusySurfacesWithoutRetries(t *testing.T) {
	cc, sc := net.Pipe()
	shedServer(t, sc, 1)
	c := NewClient(cc)
	defer c.Close()
	if _, err := c.Sample("k", 2, SampleOpts{}); !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	// The same connection still works for the next (unshed) request.
	ids, err := c.Sample("k", 2, SampleOpts{})
	if err != nil {
		t.Fatalf("request after shed: %v", err)
	}
	if !slices.Equal(ids, []uint64{4, 9}) {
		t.Fatalf("ids %v", ids)
	}
}
