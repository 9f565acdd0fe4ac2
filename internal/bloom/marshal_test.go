package bloom

import (
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"repro/internal/hashfam"
)

func TestFilterMarshalRoundTrip(t *testing.T) {
	for _, kind := range hashfam.Kinds() {
		fam := hashfam.MustNew(kind, 12345, 3, 77)
		f := NewFromElements(fam, []uint64{1, 99, 5000, 1 << 30})
		data, err := f.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		g, err := UnmarshalFilter(data)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Equal(g) {
			t.Fatalf("%s: round trip not equal", kind)
		}
		if g.Insertions() != 4 {
			t.Fatalf("%s: insertions = %d", kind, g.Insertions())
		}
		// The decoded filter must answer queries identically.
		for x := uint64(0); x < 2000; x++ {
			if f.Contains(x) != g.Contains(x) {
				t.Fatalf("%s: membership differs at %d", kind, x)
			}
		}
		// And must be compatible with the original (same family params).
		if err := f.Compatible(g); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

func TestUnmarshalFilterErrors(t *testing.T) {
	if _, err := UnmarshalFilter(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := UnmarshalFilter([]byte("XXXX....")); err == nil {
		t.Fatal("bad magic accepted")
	}
	fam := hashfam.MustNew(hashfam.KindMD5, 1000, 3, 1)
	good, err := NewFromElements(fam, []uint64{1}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalFilter(good[:10]); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, err := UnmarshalFilter(good[:len(good)-3]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	// Corrupt family kind, and the fnv family deleted in PR 18: a filter
	// persisted under it no longer loads.
	for _, kind := range []string{"zzz", "fnv"} {
		bad := append([]byte(nil), good...)
		copy(bad[5:], kind)
		if _, err := UnmarshalFilter(bad); err == nil || !strings.Contains(err.Error(), "unknown kind") {
			t.Fatalf("family %q: err = %v, want hashfam's unknown-kind error", kind, err)
		}
	}
}

// TestUnmarshalFilterForgedLength feeds a valid encoding whose header
// claims 2³⁸ bits: the decoder must refuse it on the payload's own length,
// before it sizes anything by the claim (it used to build the 32 GB filter
// first — an out-of-memory kill for whoever accepts encodings from a
// socket).
func TestUnmarshalFilterForgedLength(t *testing.T) {
	fam := hashfam.MustNew(hashfam.DefaultKind, 256, 3, 1)
	forged, err := NewFromElements(fam, []uint64{1, 2, 3}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	m := len(filterMagic) + 1 + len(hashfam.DefaultKind) // offset of the header's m
	binary.LittleEndian.PutUint64(forged[m:], 1<<38)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = UnmarshalFilter(forged)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a forged m was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("refusing %d forged bytes allocated %d bytes", len(forged), got)
	}
}
