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
	fam := envelopeFamily(t)
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
	overflow := envelopes(t)[KindCounting]
	binary.LittleEndian.PutUint64(overflow[overflowAt(envelopeFamily(t)):], 1<<40)

	return map[string][]byte{"filter bits": bits, "filter hashes": hashes, "counting hashes": counters,
		"counting overflow count": overflow}
}

// envelopeFamily is the family of the envelopes above.
func envelopeFamily(t testing.TB) hashfam.Family {
	t.Helper()
	fam, err := hashfam.New(hashfam.DefaultKind, 256, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	return fam
}

// overflowAt is the offset of a counting envelope's overflow count under
// fam: past the envelope, the family header and the m-bit vector.
func overflowAt(fam hashfam.Family) int {
	return len(envelopeMagic) + 1 + len(KindCounting) + len("BSC2") + 1 + len(fam.Kind()) + 28 + 8 + int((fam.M()+63)/64*8)
}

// malformedOverflow returns counting envelopes whose overflow list is not
// one a filter can hold: each is a valid envelope with at least two entries
// but for one flaw.
func malformedOverflow(t testing.TB) map[string][]byte {
	t.Helper()
	fam := envelopeFamily(t)
	m, err := NewDynamicWith(KindCounting, fam, 0, []uint64{3, 5, 8, 3, 5, 8})
	if err != nil {
		t.Fatal(err)
	}
	good, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	at := overflowAt(fam)
	count := int(binary.LittleEndian.Uint64(good[at:]))
	if count < 2 {
		t.Fatalf("the envelope holds %d overflow entries, want at least 2", count)
	}
	entry := func(i int) uint64 { return binary.LittleEndian.Uint64(good[at+8+8*i:]) }
	with := func(entries map[int]uint64) []byte {
		env := bytes.Clone(good)
		for i, e := range entries {
			binary.LittleEndian.PutUint64(env[at+8+8*i:], e)
		}
		return env
	}
	clearBit := bytes.Clone(good)
	p := entry(0) >> 8
	clearBit[at-int((fam.M()+63)/64*8)+int(p/8)] &^= 1 << (p % 8)
	return map[string][]byte{
		"entries out of order":      with(map[int]uint64{0: entry(1), 1: entry(0)}),
		"entry duplicated":          with(map[int]uint64{1: entry(0)}),
		"position at m":             with(map[int]uint64{count - 1: fam.M()<<8 | 2}),
		"position with a clear bit": clearBit,
		"counter below 2":           with(map[int]uint64{0: entry(0)&^0xff | 1}),
		"trailing byte":             append(bytes.Clone(good), 0),
	}
}

// legacyCounting is the counting envelope of ids as BSC1 stored it: the
// family header, then m counters of one byte.
func legacyCounting(t testing.TB, ids []uint64) []byte {
	t.Helper()
	fam := envelopeFamily(t)
	counts := make([]byte, fam.M())
	for _, x := range ids {
		for _, p := range fam.Positions(x, nil) {
			counts[p]++
		}
	}
	b := append([]byte("BSC1"), byte(len(fam.Kind())))
	b = append(b, fam.Kind()...)
	b = binary.LittleEndian.AppendUint64(b, fam.M())
	b = binary.LittleEndian.AppendUint32(b, uint32(fam.K()))
	b = binary.LittleEndian.AppendUint64(b, fam.Seed())
	b = binary.LittleEndian.AppendUint64(b, uint64(len(ids)))
	return envelope(KindCounting, append(b, counts...))
}

func TestUnmarshalRefusesMalformedOverflow(t *testing.T) {
	for name, env := range malformedOverflow(t) {
		if _, err := Unmarshal(env); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestUnmarshalReadsBSC1 loads a counting set saved as m counter bytes: it
// is the set of the same ids, and is written back as BSC2.
func TestUnmarshalReadsBSC1(t *testing.T) {
	ids := []uint64{3, 5, 8, 3, 5, 8, 13, 1 << 33}
	got, err := Unmarshal(legacyCounting(t, ids))
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewDynamicWith(KindCounting, envelopeFamily(t), 0, ids)
	if err != nil {
		t.Fatal(err)
	}
	g, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	w, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) || !bytes.HasPrefix(g[len(envelopeMagic)+1+len(KindCounting):], []byte("BSC2")) {
		t.Fatalf("a BSC1 set re-encodes as\n%x\nnot as the BSC2 of its ids\n%x", g, w)
	}
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
	for _, env := range malformedOverflow(f) {
		f.Add(env)
	}
	f.Add(legacyCounting(f, []uint64{3, 5, 8, 3, 5, 8, 13, 1 << 33}))
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
