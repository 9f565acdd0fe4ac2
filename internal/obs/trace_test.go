package obs

import (
	"context"
	"testing"
	"time"
)

func TestRequestIDsUniqueAndClean(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 10_000; i++ {
		id := NewRequestID()
		if len(id) != 16 {
			t.Fatalf("id %q has length %d, want 16", id, len(id))
		}
		if CleanRequestID(id) != id {
			t.Fatalf("generated id %q fails its own validation", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestCleanRequestID(t *testing.T) {
	cases := map[string]string{
		"abc-123_X.y":       "abc-123_X.y",
		"":                  "",
		"has space":         "",
		"newline\nembedded": "",
		"quote\"":           "",
		"héllo":             "",
	}
	for in, want := range cases {
		if got := CleanRequestID(in); got != want {
			t.Errorf("CleanRequestID(%q) = %q, want %q", in, got, want)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	if got := CleanRequestID(string(long)); got != "" {
		t.Errorf("65-char id accepted: %q", got)
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	tr.Add(StageDecode, time.Millisecond) // must not panic
	tr.FillExecute(time.Second)
	if tr.ID() != "" || tr.StageDur(StageExecute) != 0 {
		t.Error("nil trace leaked state")
	}
	_ = tr.StageAttr()
	if got := TraceFrom(context.Background()); got != nil {
		t.Errorf("TraceFrom(empty ctx) = %v, want nil", got)
	}
}

func TestTraceStagesAndFillExecute(t *testing.T) {
	tr := NewTrace("rid1")
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("trace did not round-trip through context")
	}
	tr.Add(StageAdmission, 1*time.Microsecond)
	tr.Add(StageDecode, 10*time.Microsecond)
	tr.Add(StageDecode, 5*time.Microsecond) // accumulates
	tr.Add(StageEncode, 20*time.Microsecond)
	tr.FillExecute(100 * time.Microsecond)
	if got := tr.StageDur(StageDecode); got != 15*time.Microsecond {
		t.Errorf("decode = %v, want 15µs", got)
	}
	if got := tr.StageDur(StageExecute); got != 65*time.Microsecond {
		t.Errorf("execute = %v, want 100-15-20 = 65µs", got)
	}
	// A total smaller than the measured stages clamps to zero rather
	// than going negative.
	tr.FillExecute(time.Microsecond)
	if got := tr.StageDur(StageExecute); got != 0 {
		t.Errorf("clamped execute = %v, want 0", got)
	}
}

// TestFrameTraceID: a binary request's trace keeps the connection ordinal
// and the frame's request id and spells them only when asked.
func TestFrameTraceID(t *testing.T) {
	if got := NewFrameTrace(3, 17).ID(); got != "bin-3-17" {
		t.Errorf("ID() = %q, want bin-3-17", got)
	}
	if got := NewFrameTrace(1, 0).ID(); got != "bin-1-0" {
		t.Errorf("ID() = %q, want bin-1-0", got)
	}
	if got := NewTrace("rid1").ID(); got != "rid1" {
		t.Errorf("ID() = %q, want rid1", got)
	}
	if n := testing.AllocsPerRun(100, func() { _ = NewFrameTrace(3, 17) }); n > 1 {
		t.Errorf("NewFrameTrace allocates %v times, want the trace alone", n)
	}
}

func TestStageNames(t *testing.T) {
	want := []string{"admission", "decode", "execute", "encode"}
	for i, name := range want {
		if Stage(i).String() != name {
			t.Errorf("Stage(%d) = %q, want %q", i, Stage(i), name)
		}
	}
	if Stage(200).String() != "unknown" {
		t.Error("out-of-range stage must stringify as unknown")
	}
}
