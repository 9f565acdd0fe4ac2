package membership

import "repro/internal/bloom"

// countingSet adapts a *bloom.CountingFilter to the DynamicMembership
// contract. Its query view is the filter's plain-Bloom Snapshot: built by
// the first read of the key, then carried from version to version by the
// filter's own CloneAdd/CloneRemove, which patch the bits whose counter
// crossed zero — so it is exact after deletes, and a key that is never
// read never has one.
type countingSet struct {
	c *bloom.CountingFilter
}

func (s countingSet) Backend() Kind           { return KindCounting }
func (s countingSet) Contains(id uint64) bool { return s.c.Contains(id) }
func (s countingSet) Live() uint64            { return s.c.Live() }

// QueryView returns the snapshot; only a version with no viewed ancestor
// computes it.
func (s countingSet) QueryView() *bloom.Filter { return s.c.Snapshot() }

// SizeBytes counts what is resident: the counter array, plus the query
// view once a read has materialized it. Asking never builds the view.
func (s countingSet) SizeBytes() uint64 {
	size := s.c.SizeBytes()
	if view := s.c.PeekSnapshot(); view != nil {
		size += view.SizeBytes()
	}
	return size
}

func (s countingSet) ContainsBatch(ids []uint64, out []bool, scratch []uint64) []uint64 {
	return s.c.Snapshot().ContainsBatch(ids, out, scratch)
}

func (s countingSet) CloneAdd(ids ...uint64) Membership { return s.CloneAddDynamic(ids...) }

func (s countingSet) CloneAddDynamic(ids ...uint64) DynamicMembership {
	return countingSet{s.c.CloneAdd(ids...)}
}

func (s countingSet) CloneRemove(ids ...uint64) (DynamicMembership, error) {
	next, err := s.c.CloneRemove(ids...)
	if err != nil {
		return nil, err
	}
	return countingSet{next}, nil
}

// Counting returns the wrapped counting filter, for callers that need
// the concrete type (introspection, tests).
func (s countingSet) Counting() *bloom.CountingFilter { return s.c }
