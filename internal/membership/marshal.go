package membership

import (
	"fmt"

	"repro/internal/bloom"
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
	}
	return nil, fmt.Errorf("membership: unknown backend kind %q", kind)
}
