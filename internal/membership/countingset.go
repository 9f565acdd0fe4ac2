package membership

import "repro/internal/bloom"

// countingSet adapts a *bloom.CountingFilter to the DynamicMembership
// contract. The filter holds its counters as a bit vector (counter > 0)
// and a list of the counters of 2 or more, so its query view is a header
// over that vector: every version has it, exact after deletes, and a
// write copies only the part it changes.
type countingSet struct {
	c *bloom.CountingFilter
}

func (s countingSet) Backend() Kind           { return KindCounting }
func (s countingSet) Contains(id uint64) bool { return s.c.Contains(id) }
func (s countingSet) Live() uint64            { return s.c.Live() }

// QueryView returns the snapshot, an O(1) header over the filter's bits.
func (s countingSet) QueryView() *bloom.Filter { return s.c.Snapshot() }

// SizeBytes counts what is resident: the bit vector, which the query view
// shares, and the overflow list.
func (s countingSet) SizeBytes() uint64 { return s.c.SizeBytes() }

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
