package membership

import "repro/internal/bloom"

// bloomSet adapts a plain *bloom.Filter to the Membership contract. The
// filter is its own query view, so every method is a direct delegation —
// the Bloom backend pays nothing for the indirection beyond the
// interface dispatch.
type bloomSet struct {
	f *bloom.Filter
}

func (s bloomSet) Backend() Kind            { return KindBloom }
func (s bloomSet) Contains(id uint64) bool  { return s.f.Contains(id) }
func (s bloomSet) Live() uint64             { return s.f.Insertions() }
func (s bloomSet) QueryView() *bloom.Filter { return s.f }
func (s bloomSet) SizeBytes() uint64        { return s.f.SizeBytes() }

func (s bloomSet) ContainsBatch(ids []uint64, out []bool, scratch []uint64) []uint64 {
	return s.f.ContainsBatch(ids, out, scratch)
}

func (s bloomSet) CloneAdd(ids ...uint64) Membership { return bloomSet{s.f.CloneAdd(ids...)} }
