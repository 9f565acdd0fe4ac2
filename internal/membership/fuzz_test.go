package membership

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bloom"
	"repro/internal/hashfam"
)

// envelopes returns one small valid envelope per backend: the bodies of the
// sets a snapshot, a restore bundle or a WAL snapshot carries.
func envelopes(t testing.TB) map[Kind][]byte {
	t.Helper()
	fam, err := hashfam.New(hashfam.DefaultKind, 256, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	ids := []uint64{3, 5, 8, 13, 1 << 33}
	out := map[Kind][]byte{}
	for _, kind := range conformanceKinds {
		m, err := NewDynamicWith(kind, fam, 0, ids)
		if err != nil {
			t.Fatal(err)
		}
		if out[kind], err = m.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	// A counting set's query view is the plain filter of the same ids.
	plain, err := NewDynamicWith(KindCounting, fam, 0, ids)
	if err != nil {
		t.Fatal(err)
	}
	if out[KindBloom], err = FromBloom(plain.QueryView()).MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	return out
}

// forged returns envelopes that are valid but for one count a decoder once
// sized an allocation by before looking at the bytes in hand — each a kill
// of any process that decodes what a socket sends, since a Go out-of-memory
// is fatal: the plain filter's bit count (2³⁸ bits, 32 GB) and its hash
// count under the family that precomputes per function (2³¹ moduli, 16 GB;
// the counting filter's likewise).
func forged(t testing.TB) map[string][]byte {
	t.Helper()
	bits := envelopes(t)[KindBloom]
	m := len(envelopeMagic) + 1 + len(KindBloom) + len("BSF1") + 1 + len(hashfam.DefaultKind)
	binary.LittleEndian.PutUint64(bits[m:], 1<<38)

	fam, err := hashfam.New(hashfam.KindSimple, 256, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	hashes, err := FromBloom(bloom.New(fam)).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	k := len(envelopeMagic) + 1 + len(KindBloom) + len("BSF1") + 1 + len(hashfam.KindSimple) + 8
	binary.LittleEndian.PutUint32(hashes[k:], 1<<31-1)
	counters, err := FromCounting(bloom.NewCounting(fam)).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(counters[k+len(KindCounting)-len(KindBloom):], 1<<31-1)

	return map[string][]byte{"filter bits": bits, "filter hashes": hashes, "counting hashes": counters}
}

// retagged is a well-formed counting envelope under another kind tag: the
// name of the backend the repository no longer serves, which the tag alone
// refuses; a name it never had; or none, which reads as counting.
func retagged(t testing.TB, kind Kind) []byte {
	t.Helper()
	counting := envelopes(t)[KindCounting]
	return envelope(kind, counting[len(envelopeMagic)+1+len(KindCounting):])
}

func TestUnmarshalRefusesRemovedBackend(t *testing.T) {
	if _, err := ParseKind("cuckoo"); err == nil || !strings.Contains(err.Error(), `backend "cuckoo" was removed`) {
		t.Fatalf("ParseKind(cuckoo) = %v, want the named refusal", err)
	}
	for _, name := range []string{"", "bloom", "counting"} {
		if _, err := ParseKind(name); err != nil {
			t.Fatalf("ParseKind(%q) = %v", name, err)
		}
	}
	if _, err := Unmarshal(retagged(t, "cuckoo")); err == nil || !strings.Contains(err.Error(), "cuckoo") {
		t.Fatalf("Unmarshal of a cuckoo envelope = %v, want the named refusal", err)
	}
}

func TestUnmarshalForgedCounts(t *testing.T) {
	for name, env := range forged(t) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Unmarshal(env)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: the forged envelope was accepted", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: refusing %d forged bytes allocated %d bytes", name, len(env), got)
		}
	}
}

// FuzzMembershipUnmarshal feeds Unmarshal what a socket could: it must not
// panic (or die sizing an allocation by a forged count, which no test can
// catch), and a value it accepts must survive MarshalBinary → Unmarshal →
// MarshalBinary with equal bytes.
func FuzzMembershipUnmarshal(f *testing.F) {
	for _, env := range envelopes(f) {
		f.Add(env)
	}
	for _, env := range forged(f) {
		f.Add(env)
	}
	for _, kind := range []Kind{"cuckoo", "quotient", ""} {
		f.Add(retagged(f, kind))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		enc, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted value does not marshal: %v", err)
		}
		m2, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("accepted value does not reload: %v", err)
		}
		enc2, err := m2.MarshalBinary()
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("reloaded value marshals differently (err %v)", err)
		}
	})
}
