// Package membership defines the backend contract behind every set the
// database stores: the key map in internal/setdb holds Membership values
// instead of concrete Bloom filters, so a set that never deletes (a plain
// Bloom filter) and one that does (a counting Bloom filter) sit behind one
// interface. (The nodes of the BloomSampleTree in internal/core do not: a
// node is a plain Bloom filter and is held as one.) The contract is what an
// entry needs — probe, batched probe, copy-on-write add/remove, a Bloom
// query view, and a tagged serialization — and this package is that
// contract plus the adapters for the two backends the repository ships.
//
// The tree descent works on bit-level intersection estimates, so every
// backend exposes a QueryView: a plain Bloom filter of its contents, which
// the descent, the leaf probes and the scan all read. For a Bloom backend
// the view is the filter itself. The counting backend holds its counters
// as a bit vector (counter > 0) plus a list of the counters of 2 or more,
// and its view is a header over that vector: CloneAdd and CloneRemove copy
// the vector only when a counter crosses zero, so every version's view is
// exactly its counters' and a removed id is gone from it unless it is a
// false positive of what is left.
package membership

import (
	"fmt"

	"repro/internal/bloom"
	"repro/internal/hashfam"
)

// Kind names a membership backend; it is embedded in the serialized form
// and surfaced through stats.
type Kind string

const (
	// KindBloom is a plain Bloom filter: cheapest probes and memory, no
	// deletion. The only legal backend for static (plain) sets.
	KindBloom Kind = "bloom"
	// KindCounting is the counting Bloom filter: 8-bit counters, native
	// delete, a plain filter's memory plus 8 bytes per counter of 2 or
	// more. The one removable backend.
	KindCounting Kind = "counting"
)

// ParseKind validates a backend name from a flag, an option, a bundle
// header or an envelope; "" means counting. It is the one gate for all of
// them, so a name the repository no longer serves is refused by name here.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case KindBloom, KindCounting:
		return Kind(s), nil
	case "":
		return KindCounting, nil
	case "cuckoo":
		return "", fmt.Errorf("membership: backend %q was removed: its query view served removed ids; rebuild the database on counting", s)
	}
	return "", fmt.Errorf("membership: unknown backend kind %q (want bloom or counting)", s)
}

// Membership is the read-plus-COW-write contract every backend satisfies.
// Values are immutable once published: CloneAdd returns a new value and
// never mutates the receiver, so instances can sit behind atomic pointers
// and be read without synchronization, the repository-wide discipline.
type Membership interface {
	// Backend identifies the concrete implementation.
	Backend() Kind
	// Contains reports whether id is a (possibly false) positive, through
	// the backend's native representation — delete-aware where the
	// backend supports deletion.
	Contains(id uint64) bool
	// ContainsBatch probes ids, writing results into out (len(ids)) and
	// reusing scratch for position buffers where the backend hashes in
	// batch (the PositionsMany path); it returns the possibly-grown
	// scratch, preserving the caller-owned-scratch allocation contract.
	ContainsBatch(ids []uint64, out []bool, scratch []uint64) []uint64
	// Live returns the net number of stored elements (adds minus removes).
	Live() uint64
	// QueryView returns a plain Bloom projection of the contents for the
	// tree descent and intersection estimates. For a Bloom backend this
	// is the filter itself; for the counting backend an O(1) header over
	// the bit vector it holds. The returned filter is shared — treat it as
	// immutable.
	QueryView() *bloom.Filter
	// CloneAdd returns a new Membership equal to the receiver with ids
	// inserted. The receiver is never mutated.
	CloneAdd(ids ...uint64) Membership
	// SizeBytes returns the backend's resident memory; it builds nothing.
	SizeBytes() uint64
	// MarshalBinary serializes the backend with an embedded kind tag
	// (the "BSM1" envelope; see Unmarshal).
	MarshalBinary() ([]byte, error)
}

// DynamicMembership extends Membership with deletion for the backend that
// supports it (counting).
type DynamicMembership interface {
	Membership
	// CloneAddDynamic is CloneAdd with a dynamic static type, so writers
	// on the dynamic path keep deletion capability without asserting.
	CloneAddDynamic(ids ...uint64) DynamicMembership
	// CloneRemove returns a new value with one insertion of each id
	// removed, all-or-nothing: if any id is not a member, it returns an
	// error wrapping bloom.ErrNotMember and no new value. The receiver is
	// never mutated.
	CloneRemove(ids ...uint64) (DynamicMembership, error)
}

// NewDynamicWith creates a dynamic set of the given kind pre-populated with
// ids in one pass (bloom.NewCountingFromElements), mutating only private
// state before first publication.
// The family supplies the counter array's geometry.
//
// capacityHint is unused; the signature is kept for bench/ (ROADMAP item
// 1).
func NewDynamicWith(kind Kind, fam hashfam.Family, capacityHint uint64, ids []uint64) (DynamicMembership, error) {
	switch kind {
	case KindCounting:
		return countingSet{bloom.NewCountingFromElements(fam, ids)}, nil
	case KindBloom:
		return nil, fmt.Errorf("membership: backend %q cannot delete; use counting for dynamic sets", kind)
	}
	return nil, fmt.Errorf("membership: unknown backend kind %q", kind)
}

// MatchesFamily returns nil if m was built with parameters equal to fam's,
// and the error of bloom.Filter.MatchesFamily otherwise. A counting set is
// asked about its counters; a Bloom set is its own view.
func MatchesFamily(m Membership, fam hashfam.Family) error {
	if s, ok := m.(countingSet); ok {
		return s.c.MatchesFamily(fam)
	}
	return m.QueryView().MatchesFamily(fam)
}

// FromBloom wraps a plain Bloom filter as a (static) Membership.
func FromBloom(f *bloom.Filter) Membership { return bloomSet{f} }

// FromCounting wraps a counting filter as a DynamicMembership.
func FromCounting(c *bloom.CountingFilter) DynamicMembership { return countingSet{c} }
