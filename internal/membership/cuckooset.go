package membership

import (
	"fmt"

	"repro/internal/bloom"
	"repro/internal/cuckoo"
	"repro/internal/hashfam"
)

// cuckooSet adapts cuckoo filters to the DynamicMembership contract.
//
// Two design points make the adapter, not the filter, the interesting
// part:
//
// Stacked growth. A cuckoo filter stores fingerprints, not keys, so a
// full table cannot be rehashed into a larger one — the key bits needed
// to recompute bucket indices at the new size are gone. Instead the set
// holds a stack of tables: inserts target the newest, and when it
// reports full a fresh table with twice the slots is appended (so the
// stack depth is logarithmic in growth and the geometric total keeps
// amortized memory within ~2x of a right-sized table). Probes and
// deletes search newest-first — the newest table is where recent, still
// live entries concentrate.
//
// Monotone query view. The tree descent needs bit-level intersection
// estimates, which fingerprints cannot provide, so the set maintains a
// plain Bloom projection alongside the tables: extended incrementally on
// CloneAdd (sharing the underlying vector when nothing changes), shared
// unchanged on CloneRemove. The view is therefore a monotone
// over-approximation after deletes — it can steer the sampler into a
// branch whose elements are gone (the leaf probe, which goes through the
// delete-aware tables, rejects them), but can never hide a live element.
// That is the same performance-not-correctness argument the pruned tree
// makes for node occupancy.
type cuckooSet struct {
	fam    hashfam.Family
	tables []*cuckoo.Filter // newest last; only the newest accepts inserts
	view   *bloom.Filter    // monotone plain-Bloom projection for the descent
	live   uint64
}

// minCuckooCapacity floors the first table so tiny design hints do not
// produce a stack of near-empty micro-tables.
const minCuckooCapacity = 64

func newCuckooSet(fam hashfam.Family, capacityHint uint64, ids []uint64) *cuckooSet {
	if capacityHint < minCuckooCapacity {
		capacityHint = minCuckooCapacity
	}
	s := &cuckooSet{
		fam:    fam,
		tables: []*cuckoo.Filter{cuckoo.New(capacityHint, fam.Seed())},
		view:   bloom.New(fam),
	}
	s.insertAll(ids)
	s.view.AddMany(ids)
	s.live += uint64(len(ids))
	return s
}

// insertAll inserts into privately-owned tables (fresh or just cloned),
// stacking doubled tables as they fill. It cannot fail: a fresh table
// always has room for at least one more fingerprint.
func (s *cuckooSet) insertAll(ids []uint64) {
	last := len(s.tables) - 1
	for _, id := range ids {
		for s.tables[last].Insert(id) != nil {
			// Full: freeze this table and stack one with double the slots.
			s.tables = append(s.tables, cuckoo.New(s.tables[last].Capacity(), s.fam.Seed()))
			last++
		}
	}
}

func (s *cuckooSet) Backend() Kind { return KindCuckoo }

func (s *cuckooSet) Contains(id uint64) bool {
	for i := len(s.tables) - 1; i >= 0; i-- {
		if s.tables[i].Contains(id) {
			return true
		}
	}
	return false
}

// ContainsBatch probes each id through the native tables. The cuckoo
// probe is two bucket reads, already cache-friendly; scratch is returned
// untouched to honor the shared contract.
func (s *cuckooSet) ContainsBatch(ids []uint64, out []bool, scratch []uint64) []uint64 {
	for i, id := range ids {
		out[i] = s.Contains(id)
	}
	return scratch
}

func (s *cuckooSet) Live() uint64             { return s.live }
func (s *cuckooSet) QueryView() *bloom.Filter { return s.view }

func (s *cuckooSet) SizeBytes() uint64 {
	total := s.view.SizeBytes()
	for _, t := range s.tables {
		total += t.SizeBytes()
	}
	return total
}

// LoadFactor reports fingerprint occupancy across the table stack.
func (s *cuckooSet) LoadFactor() float64 {
	var n, cap uint64
	for _, t := range s.tables {
		n += t.Count()
		cap += t.Capacity()
	}
	if cap == 0 {
		return 0
	}
	return float64(n) / float64(cap)
}

func (s *cuckooSet) CloneAdd(ids ...uint64) Membership { return s.CloneAddDynamic(ids...) }

func (s *cuckooSet) CloneAddDynamic(ids ...uint64) DynamicMembership {
	next := &cuckooSet{
		fam:    s.fam,
		tables: append([]*cuckoo.Filter(nil), s.tables...),
		view:   s.view.CloneAdd(ids...),
		live:   s.live,
	}
	if len(ids) == 0 {
		return next
	}
	// Only the insert target needs a private copy; frozen tables are
	// shared structurally with the receiver.
	last := len(next.tables) - 1
	next.tables[last] = next.tables[last].Clone()
	next.insertAll(ids)
	next.live += uint64(len(ids))
	return next
}

func (s *cuckooSet) CloneRemove(ids ...uint64) (DynamicMembership, error) {
	next := &cuckooSet{
		fam:    s.fam,
		tables: append([]*cuckoo.Filter(nil), s.tables...),
		view:   s.view, // monotone: the view is shared unchanged across deletes
		live:   s.live,
	}
	cloned := make([]bool, len(next.tables))
	for _, id := range ids {
		removed := false
		for i := len(next.tables) - 1; i >= 0; i-- {
			if !next.tables[i].Contains(id) {
				continue
			}
			if !cloned[i] {
				next.tables[i] = next.tables[i].Clone()
				cloned[i] = true
			}
			next.tables[i].Delete(id)
			removed = true
			break
		}
		if !removed {
			// All-or-nothing: discard the partial clone, report which id.
			return nil, fmt.Errorf("%w %d", bloom.ErrNotMember, id)
		}
		next.live--
	}
	return next, nil
}
