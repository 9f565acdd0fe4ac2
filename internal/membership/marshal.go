package membership

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bloom"
	"repro/internal/cuckoo"
)

// The serialized form of every backend is a tagged envelope, so a
// reader can reconstruct the right implementation without out-of-band
// knowledge:
//
//	magic   [4]byte "BSM1"
//	kind    uint8 length + backend kind string
//	payload backend-specific encoding
const envelopeMagic = "BSM1"

// MarshalBinary implementations: each adapter wraps its concrete
// encoding in the envelope.

func (s bloomSet) MarshalBinary() ([]byte, error) {
	payload, err := s.f.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return envelope(KindBloom, payload), nil
}

func (s countingSet) MarshalBinary() ([]byte, error) {
	payload, err := s.c.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return envelope(KindCounting, payload), nil
}

// The cuckoo payload carries the live count, the query view, and the
// table stack:
//
//	live    uint64
//	view    uint32 length + "BSF1" filter
//	tables  uint32 count, then per table: uint32 length + "CKF1" filter
func (s *cuckooSet) MarshalBinary() ([]byte, error) {
	view, err := s.view.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, 16+len(view))
	out = binary.LittleEndian.AppendUint64(out, s.live)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(view)))
	out = append(out, view...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(s.tables)))
	for _, t := range s.tables {
		enc, err := t.MarshalBinary()
		if err != nil {
			return nil, err
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(len(enc)))
		out = append(out, enc...)
	}
	return envelope(KindCuckoo, out), nil
}

func envelope(kind Kind, payload []byte) []byte {
	out := make([]byte, 0, 4+1+len(kind)+len(payload))
	out = append(out, envelopeMagic...)
	out = append(out, byte(len(kind)))
	out = append(out, kind...)
	return append(out, payload...)
}

// Unmarshal decodes a Membership from its tagged "BSM1" envelope.
func Unmarshal(data []byte) (Membership, error) {
	if len(data) < 5 {
		return nil, fmt.Errorf("membership: truncated encoding")
	}
	if string(data[:4]) != envelopeMagic {
		return nil, fmt.Errorf("membership: unrecognized encoding %q", data[:4])
	}
	kl := int(data[4])
	if len(data) < 5+kl {
		return nil, fmt.Errorf("membership: truncated envelope")
	}
	kind, err := ParseKind(string(data[5 : 5+kl]))
	if err != nil {
		return nil, err
	}
	return unmarshalPayload(kind, data[5+kl:])
}

// UnmarshalDynamic decodes a DynamicMembership, rejecting backends that
// cannot delete.
func UnmarshalDynamic(data []byte) (DynamicMembership, error) {
	m, err := Unmarshal(data)
	if err != nil {
		return nil, err
	}
	d, ok := m.(DynamicMembership)
	if !ok {
		return nil, fmt.Errorf("membership: backend %q is not dynamic", m.Backend())
	}
	return d, nil
}

func unmarshalPayload(kind Kind, payload []byte) (Membership, error) {
	switch kind {
	case KindBloom:
		f, err := bloom.UnmarshalFilter(payload)
		if err != nil {
			return nil, err
		}
		return bloomSet{f}, nil
	case KindCounting:
		c, err := bloom.UnmarshalCounting(payload)
		if err != nil {
			return nil, err
		}
		return countingSet{c}, nil
	case KindCuckoo:
		return unmarshalCuckoo(payload)
	}
	return nil, fmt.Errorf("membership: unknown backend kind %q", kind)
}

func unmarshalCuckoo(data []byte) (*cuckooSet, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("membership: truncated cuckoo payload")
	}
	live := binary.LittleEndian.Uint64(data[0:])
	vl := binary.LittleEndian.Uint32(data[8:])
	data = data[12:]
	if uint64(len(data)) < uint64(vl)+4 {
		return nil, fmt.Errorf("membership: truncated cuckoo view")
	}
	view, err := bloom.UnmarshalFilter(data[:vl])
	if err != nil {
		return nil, fmt.Errorf("membership: cuckoo view: %w", err)
	}
	data = data[vl:]
	nt := binary.LittleEndian.Uint32(data)
	data = data[4:]
	if nt == 0 {
		return nil, fmt.Errorf("membership: cuckoo payload has no tables")
	}
	// Each table carries at least its 4-byte length, so the bytes in hand
	// bound the count before anything is sized by it.
	if uint64(nt) > uint64(len(data))/4 {
		return nil, fmt.Errorf("membership: cuckoo payload declares %d tables in %d bytes", nt, len(data))
	}
	tables := make([]*cuckoo.Filter, 0, nt)
	for i := uint32(0); i < nt; i++ {
		if len(data) < 4 {
			return nil, fmt.Errorf("membership: truncated cuckoo table %d", i)
		}
		tl := binary.LittleEndian.Uint32(data)
		data = data[4:]
		if uint64(len(data)) < uint64(tl) {
			return nil, fmt.Errorf("membership: truncated cuckoo table %d", i)
		}
		t, err := cuckoo.Unmarshal(data[:tl])
		if err != nil {
			return nil, fmt.Errorf("membership: cuckoo table %d: %w", i, err)
		}
		tables = append(tables, t)
		data = data[tl:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("membership: %d trailing bytes after cuckoo payload", len(data))
	}
	return &cuckooSet{fam: view.Family(), tables: tables, view: view, live: live}, nil
}
