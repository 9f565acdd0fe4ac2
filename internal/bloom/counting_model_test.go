package bloom

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/hashfam"
)

// naiveProject is the per-counter reference every view is checked against:
// bit p set iff counts[p] > 0.
func naiveProject(counts []uint8) []uint64 {
	words := make([]uint64, (len(counts)+63)/64)
	for p, cnt := range counts {
		if cnt > 0 {
			words[p/64] |= 1 << (uint(p) % 64)
		}
	}
	return words
}

// counters returns c's m counters, one byte a position: 1 where its bit is
// set, the held count where it has an overflow entry.
func counters(c *CountingFilter) []uint8 {
	counts := make([]uint8, c.M())
	c.bits.ForEachSet(func(p uint64) bool {
		counts[p] = 1
		return true
	})
	for _, e := range c.over {
		counts[e>>8] = uint8(e)
	}
	return counts
}

// encodingHeader is the magic and family header every filter encoding
// begins with, assembled by hand.
func encodingHeader(magic string, fam hashfam.Family, n uint64) []byte {
	b := append([]byte(magic), byte(len(fam.Kind())))
	b = append(b, fam.Kind()...)
	b = binary.LittleEndian.AppendUint64(b, fam.M())
	b = binary.LittleEndian.AppendUint32(b, uint32(fam.K()))
	b = binary.LittleEndian.AppendUint64(b, fam.Seed())
	return binary.LittleEndian.AppendUint64(b, n)
}

// modelEncoding is the BSC2 encoding of counts: the header, the vector of
// the non-zero counters and the list of those of 2 or more.
func modelEncoding(fam hashfam.Family, counts []uint8, n uint64) []byte {
	b := binary.LittleEndian.AppendUint64(encodingHeader(countingMagic, fam, n), fam.M())
	for _, w := range naiveProject(counts) {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	var over []uint64
	for p, cnt := range counts {
		if cnt >= 2 {
			over = append(over, uint64(p)<<8|uint64(cnt))
		}
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(over)))
	for _, e := range over {
		b = binary.LittleEndian.AppendUint64(b, e)
	}
	return b
}

// fromCounters decodes counts, with n live insertions, from the BSC1
// encoding: the header and one byte a counter.
func fromCounters(t testing.TB, fam hashfam.Family, counts []uint8, n uint64) *CountingFilter {
	t.Helper()
	c, err := UnmarshalCounting(append(encodingHeader(legacyCountingMagic, fam, n), counts...))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestProjectMatchesPerCounterReference decodes BSC1 payloads, m counter
// bytes, over every length 2..200 — tails that are no multiple of 8 or of
// 64 — with counters that exercise each byte: zero, one, the high bit
// alone, saturated, and sparse and dense mixes of them. The decoded filter
// must project them as the per-counter reference does, hold each counter,
// and encode as BSC2 byte for byte.
func TestProjectMatchesPerCounterReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	values := []uint8{0, 0, 0, 1, 2, 0x7f, 0x80, 0xfe, 0xff}
	for m := 2; m <= 200; m++ {
		fam := viewFam(t, uint64(m))
		for round := 0; round < 20; round++ {
			counts := make([]uint8, m)
			density := rng.Intn(len(values)) + 1
			for p := range counts {
				counts[p] = values[rng.Intn(density)]
			}
			c := fromCounters(t, fam, counts, uint64(round))
			if got, want := c.bits.Raw(), naiveProject(counts); !slices.Equal(got, want) {
				t.Fatalf("m = %d, counters %v: projected %x, want %x", m, counts, got, want)
			}
			if got := counters(c); !slices.Equal(got, counts) {
				t.Fatalf("m = %d: decoded counters %v, want %v", m, got, counts)
			}
			if data, err := c.MarshalBinary(); err != nil || !slices.Equal(data, modelEncoding(fam, counts, uint64(round))) {
				t.Fatalf("m = %d: MarshalBinary = %x, %v; want the model's BSC2", m, data, err)
			}
		}
		// Through Snapshot, whose vector also has its tail masked.
		c := NewCounting(fam)
		for x := uint64(0); x < uint64(m)/3+1; x++ {
			c.Add(x)
		}
		if got, want := c.Snapshot().bits.Raw(), naiveProject(counters(c)); !slices.Equal(got, want) {
			t.Fatalf("m = %d: Snapshot %x, want %x", m, got, want)
		}
	}
}

func viewFam(t testing.TB, m uint64) hashfam.Family {
	t.Helper()
	fam, err := hashfam.New(hashfam.DefaultKind, m, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	return fam
}

// counterModel is the naive counting filter every CountingFilter is held
// to: one saturating byte a position.
type counterModel struct {
	counts []uint8
	n      uint64
}

func (m *counterModel) contains(pos []uint64) bool {
	for _, p := range pos {
		if m.counts[p] == 0 {
			return false
		}
	}
	return true
}

func (m *counterModel) add(pos []uint64) {
	for _, p := range pos {
		if m.counts[p] < 255 {
			m.counts[p]++
		}
	}
	m.n++
}

// remove takes back one insertion of a positive: saturated counters stay
// pinned, and a position repeated in pos stops at zero.
func (m *counterModel) remove(pos []uint64) {
	for _, p := range pos {
		if c := m.counts[p]; c != 0 && c != 255 {
			m.counts[p]--
		}
	}
	if m.n > 0 {
		m.n--
	}
}

// published is a value as it was when it was published.
type published struct {
	c    *CountingFilter
	bits []uint64
	over []uint64
	n    uint64
}

// modelChain derives version after version from one counting filter and
// holds each to a counter model: its counters, its view and its Live()
// are the model's, and no later step changes a version published before.
type modelChain struct {
	t       testing.TB
	fam     hashfam.Family
	cur     *CountingFilter
	model   counterModel
	history []published
}

func newModelChain(t testing.TB, fam hashfam.Family) *modelChain {
	ch := &modelChain{t: t, fam: fam, model: counterModel{counts: make([]uint8, fam.M())}}
	ch.publish("NewCounting", NewCounting(fam))
	return ch
}

func (ch *modelChain) positions(x uint64) []uint64 { return ch.fam.Positions(x, nil) }

// publish checks next against the model, then every earlier version
// against what it was, and makes next the current version.
func (ch *modelChain) publish(op string, next *CountingFilter) {
	t := ch.t
	t.Helper()
	if got := counters(next); !slices.Equal(got, ch.model.counts) {
		t.Fatalf("%s: counters\n got %v\nwant %v", op, got, ch.model.counts)
	}
	if want := naiveProject(ch.model.counts); !slices.Equal(next.bits.Raw(), want) {
		t.Fatalf("%s: the view is not the counters' projection\n got %x\nwant %x", op, next.bits.Raw(), want)
	}
	for i, e := range next.over {
		if uint8(e) < 2 || (i > 0 && e>>8 <= next.over[i-1]>>8) {
			t.Fatalf("%s: overflow list %x is not ascending counters of 2 or more", op, next.over)
		}
	}
	if next.Live() != ch.model.n {
		t.Fatalf("%s: Live = %d, the model holds %d", op, next.Live(), ch.model.n)
	}
	if view := next.snap.Load(); view != nil && (view.bits != next.bits || view.Insertions() != next.Live()) {
		t.Fatalf("%s: the snapshot is not a header over the value's bits", op)
	}
	for _, p := range ch.history {
		if !slices.Equal(p.c.bits.Raw(), p.bits) || !slices.Equal(p.c.over, p.over) || p.c.Live() != p.n {
			t.Fatalf("%s changed a version published before it", op)
		}
	}
	ch.history = append(ch.history, published{next, slices.Clone(next.bits.Raw()), slices.Clone(next.over), next.Live()})
	ch.cur = next
}

func (ch *modelChain) cloneAdd(ids ...uint64) {
	for _, x := range ids {
		ch.model.add(ch.positions(x))
	}
	ch.publish("CloneAdd", ch.cur.CloneAdd(ids...))
}

// cloneRemove removes ids as one batch; it reports whether the model took
// the whole batch, and a batch it does not take must publish nothing.
func (ch *modelChain) cloneRemove(ids ...uint64) bool {
	t := ch.t
	t.Helper()
	model := counterModel{slices.Clone(ch.model.counts), ch.model.n}
	ok := true
	for _, x := range ids {
		pos := ch.positions(x)
		if ok = model.contains(pos); !ok {
			break
		}
		model.remove(pos)
	}
	next, err := ch.cur.CloneRemove(ids...)
	if !ok {
		if next != nil || !errors.Is(err, ErrNotMember) {
			t.Fatalf("CloneRemove%v of a non-member returned %v, %v", ids, next, err)
		}
		ch.publish("failed CloneRemove", ch.cur) // re-checks the untouched versions
		return false
	}
	if err != nil {
		t.Fatalf("CloneRemove%v: %v", ids, err)
	}
	ch.model = model
	ch.publish("CloneRemove", next)
	return true
}

// inPlace copies the current version — with Clone, or as a version derived
// by an empty CloneAdd — and writes x in place on the copy twice (adds it,
// or removes it). Between the writes the copy is shared again — with a
// version derived from it, or with its snapshot — so the second write must
// copy the parts anew and leave that one as it was.
func (ch *modelChain) inPlace(x uint64, add bool) {
	t := ch.t
	t.Helper()
	next := ch.cur.Clone()
	if x/2%2 == 0 {
		next = ch.cur.CloneAdd()
	}
	ch.writeInPlace(next, x, add)
	if x%2 == 0 {
		ch.publish("Clone + in place", next.CloneAdd())
		ch.writeInPlace(next, x, add)
	} else {
		view := next.Snapshot()
		bits, n := slices.Clone(view.bits.Raw()), view.Insertions()
		ch.writeInPlace(next, x, add)
		if !slices.Equal(view.bits.Raw(), bits) || view.Insertions() != n {
			t.Fatal("an in-place write changed the snapshot taken before it")
		}
	}
	ch.publish("Clone + in place", next)
}

// writeInPlace adds or removes x on c with Add or Remove, and on the model.
func (ch *modelChain) writeInPlace(c *CountingFilter, x uint64, add bool) {
	t := ch.t
	t.Helper()
	pos := ch.positions(x)
	if add {
		ch.model.add(pos)
		c.Add(x)
		return
	}
	member := ch.model.contains(pos)
	if err := c.Remove(x); (err == nil) != member {
		t.Fatalf("in-place Remove(%d) = %v, the model says member = %v", x, err, member)
	}
	if member {
		ch.model.remove(pos)
	}
}

// snapshot reads the current version's view: one header, every time.
func (ch *modelChain) snapshot() {
	t := ch.t
	t.Helper()
	v := ch.cur.Snapshot()
	if v != ch.cur.Snapshot() || v.bits != ch.cur.bits || v.Insertions() != ch.cur.Live() {
		t.Fatal("Snapshot is not one header over the value's bits")
	}
	ch.publish("Snapshot", ch.cur)
}

// roundTrip encodes the current version, which must be the model's BSC2
// encoding byte for byte, and publishes the decoded value.
func (ch *modelChain) roundTrip() {
	t := ch.t
	t.Helper()
	data, err := ch.cur.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if want := modelEncoding(ch.fam, ch.model.counts, ch.model.n); !slices.Equal(data, want) {
		t.Fatalf("MarshalBinary\n got %x\nwant %x", data, want)
	}
	next, err := UnmarshalCounting(data)
	if err != nil {
		t.Fatal(err)
	}
	ch.publish("round trip", next)
}

// TestCountingMatchesCounterModel walks seeded random chains of CloneAdd,
// CloneRemove (some batches ending in a non-member, which must publish
// nothing), Clone followed by in-place Add/Remove, Snapshot and
// MarshalBinary → UnmarshalCounting, and checks after every step that the
// new version's counters and view are the model's and that no earlier
// version moved. Domains are small, so positions collide inside a batch
// and inside one id and counters cross zero both ways all the time; a hot
// id is driven to saturation and back, where its counters must stay
// pinned.
func TestCountingMatchesCounterModel(t *testing.T) {
	const steps, hot, hotBatch = 600, uint64(1 << 40), 65
	for _, m := range []uint64{61, 300, 4099} {
		rng := rand.New(rand.NewSource(int64(m)))
		ch := newModelChain(t, viewFam(t, m))
		var members []uint64 // live ids other than hot, one entry per insertion
		hotLive, hotUp := 0, true
		domain := int64(2 * m)
		for step := 0; step < steps; step++ {
			switch r := rng.Intn(100); {
			case r < 35 || len(members) < 8:
				batch := make([]uint64, 1+rng.Intn(8))
				for i := range batch {
					batch[i] = uint64(rng.Int63n(domain))
					if i > 0 && rng.Intn(3) == 0 {
						batch[i] = batch[rng.Intn(i)] // a duplicate inside the batch
					}
				}
				ch.cloneAdd(batch...)
				members = append(members, batch...)
			case r < 60:
				batch := make([]uint64, 0, 8)
				for want := 1 + rng.Intn(8); len(batch) < want; {
					i := rng.Intn(len(members))
					batch = append(batch, members[i])
					members[i] = members[len(members)-1]
					members = members[:len(members)-1]
				}
				if !ch.cloneRemove(batch...) {
					t.Fatalf("m = %d, step %d: removing live ids %v failed", m, step, batch)
				}
			case r < 66:
				// Live ids first, so counters have crossed zero in the new
				// version by the time the batch meets a non-member.
				batch := slices.Clone(members[:min(len(members), 6)])
				stranger := uint64(rng.Int63n(domain))
				for tries := 0; ch.cur.Contains(stranger) && tries < 64; tries++ {
					stranger++
				}
				if !ch.cur.Contains(stranger) && ch.cloneRemove(append(batch, stranger)...) {
					t.Fatalf("m = %d, step %d: a batch ending in non-member %d was taken", m, step, stranger)
				}
			case r < 76:
				if x := uint64(rng.Int63n(domain)); rng.Intn(2) == 0 {
					ch.inPlace(x, true)
					members = append(members, x, x)
				} else {
					i := rng.Intn(len(members))
					x = members[i]
					if slices.Index(members[i+1:], x) < 0 {
						ch.inPlace(x, true) // held once: make it twice, so both removes are of a member
						members = append(members, x, x)
						break
					}
					ch.inPlace(x, false)
					for range 2 {
						members = slices.Delete(members, slices.Index(members, x), slices.Index(members, x)+1)
					}
				}
			case r < 86:
				ch.snapshot()
			case r < 93:
				ch.roundTrip()
			default:
				if hotUp {
					ch.cloneAdd(slices.Repeat([]uint64{hot}, hotBatch)...)
					hotLive += hotBatch
				} else if !ch.cloneRemove(slices.Repeat([]uint64{hot}, hotBatch)...) {
					t.Fatalf("m = %d, step %d: removing the hot id failed", m, step)
				} else {
					hotLive -= hotBatch
				}
				if hotLive >= 4*hotBatch || hotLive == 0 {
					hotUp = !hotUp
				}
			}
			if ch.cur.Live() != uint64(len(members)+hotLive) {
				t.Fatalf("m = %d, step %d: Live = %d, the test holds %d", m, step, ch.cur.Live(), len(members)+hotLive)
			}
		}
		for _, x := range members {
			if !ch.cur.Contains(x) {
				t.Fatalf("m = %d: live id %d is a false negative at the end of the walk", m, x)
			}
		}
		if slices.Max(counters(ch.cur)) != 255 {
			t.Fatalf("m = %d: no counter reached saturation; the walk did not cover pinned counters", m)
		}
	}
}

// FuzzCountingOps reads the fuzzer's bytes as a chain of operations on one
// counting filter — CloneAdd, CloneRemove (of members and of strangers),
// Clone with in-place Add or Remove, Snapshot, a round trip through the
// encoding, and a burst of one id that saturates its counters — and holds
// every version to the counter model as TestCountingMatchesCounterModel
// does. The first byte picks the filter length.
func FuzzCountingOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 3, 1, 6, 9, 7, 0, 5, 4, 8, 200, 3, 1, 4, 1})
	f.Add([]byte{1, 8, 255, 8, 255, 4, 7, 3, 7, 6, 7, 5, 7, 7, 0})
	f.Add([]byte{2, 0, 10, 0, 11, 0, 12, 3, 10, 4, 99, 5, 11, 6, 12, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			return
		}
		m := []uint64{5, 61, 300}[int(data[0])%3]
		ch := newModelChain(t, viewFam(t, m))
		for ops := data[1:]; len(ops) >= 2; ops = ops[2:] {
			arg := uint64(ops[1])
			x := arg % 64
			switch ops[0] % 9 {
			case 0, 1:
				ch.cloneAdd(x, x/2)
			case 2:
				ch.cloneRemove(x)
			case 3:
				ch.cloneRemove(x, x/2)
			case 4:
				ch.inPlace(x, true)
			case 5:
				ch.inPlace(x, false)
			case 6:
				ch.snapshot()
			case 7:
				ch.roundTrip()
			case 8:
				ch.cloneAdd(slices.Repeat([]uint64{x}, int(arg))...)
			}
		}
	})
}

// TestCarriedViewConcurrentReadersAndWriters is the -race check of the
// shared parts: readers take the published version's view, probe it and
// count its bits while writers derive version after version from that same
// value — copying the vector the readers are reading, and sharing it when
// no counter crosses zero.
func TestCarriedViewConcurrentReadersAndWriters(t *testing.T) {
	published := NewCounting(cowFam(t)).CloneAdd(1, 2, 3, 4, 5, 6, 7, 8)
	for _, viewedFirst := range []bool{true, false} {
		if viewedFirst {
			published.Snapshot()
		}
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := make([]bool, 8)
				var scratch []uint64
				for i := 0; i < 300; i++ {
					view := published.Snapshot()
					scratch = view.ContainsBatch([]uint64{1, 2, 3, 4, 5, 6, 7, 8}, out, scratch)
					if slices.Contains(out, false) || view.SetBits() == 0 || !published.Contains(3) {
						t.Error("a reader of the published version lost a member")
						return
					}
				}
			}()
		}
		for w := uint64(0); w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := uint64(0); i < 300; i++ {
					next := published.CloneAdd(100*w+i+10, 1) // one new id, one that crosses nothing
					less, err := next.CloneRemove(2, 100*w+i+10)
					if err != nil {
						t.Error(err)
						return
					}
					if v := less.Snapshot(); v.Contains(2) || !v.Contains(1) {
						t.Error("a writer's view is wrong")
						return
					}
					if shared, err := published.CloneRemove(); err != nil || shared.Live() != 8 {
						t.Error("an empty batch changed the version")
						return
					}
					published.Clone().Add(100*w + i + 10) // an in-place write on a copy
				}
			}()
		}
		wg.Wait()
		if published.Contains(10) || published.Live() != 8 {
			t.Fatal("a writer's version leaked into the published one")
		}
	}
}

// TestRemoveOfRepeatedPositionStopsAtZero covers the one way a counter
// could pass zero going down: an id that hashes twice to one position and
// was never added (a false positive — outside Remove's contract, but
// nothing stops a client sending it) finds that counter at 1. The counter
// ends at 0, where it used to wrap to 255 and pin the position for good,
// and the view clears the bit with it.
func TestRemoveOfRepeatedPositionStopsAtZero(t *testing.T) {
	fam := viewFam(t, 6) // a stride of 3 returns to its first position
	var pos []uint64
	x := uint64(0)
	for ; ; x++ {
		if x == 1000 {
			t.Fatal("no id below 1000 hashes twice to one position")
		}
		pos = fam.Positions(x, pos[:0])
		if pos[0] == pos[2] {
			break
		}
	}
	counts := make([]uint8, fam.M())
	for _, p := range pos {
		counts[p] = 1
	}
	c := fromCounters(t, fam, counts, 1)
	view := c.Snapshot()
	next, err := c.CloneRemove(x)
	if err != nil {
		t.Fatal(err)
	}
	if got := counters(next); slices.Max(got) != 0 || next.Snapshot().SetBits() != 0 {
		t.Fatalf("counters after the remove: %v", got)
	}
	if err := c.Remove(x); err != nil || slices.Max(counters(c)) != 0 {
		t.Fatalf("in place: %v, counters %v", err, counters(c))
	}
	if !slices.Equal(view.bits.Raw(), naiveProject(counts)) {
		t.Fatal("the in-place remove reached the snapshot taken before it")
	}
}
