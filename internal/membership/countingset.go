package membership

import "repro/internal/bloom"

// countingSet adapts a *bloom.CountingFilter to the DynamicMembership
// contract. Its query view is the filter's memoized plain-Bloom
// Snapshot, which the counting filter already keeps consistent with
// every mutation — so unlike the cuckoo view it is exact after deletes.
type countingSet struct {
	c *bloom.CountingFilter
}

func (s countingSet) Backend() Kind           { return KindCounting }
func (s countingSet) Contains(id uint64) bool { return s.c.Contains(id) }
func (s countingSet) Live() uint64            { return s.c.Live() }

// QueryView returns the memoized snapshot; on a published (immutable)
// filter the projection is computed at most once.
func (s countingSet) QueryView() *bloom.Filter { return s.c.Snapshot() }

// SizeBytes counts the counter array plus the materialized query view,
// which serving always ends up holding.
func (s countingSet) SizeBytes() uint64 {
	return s.c.SizeBytes() + s.c.Snapshot().SizeBytes()
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
