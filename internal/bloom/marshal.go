package bloom

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/hashfam"
)

// Binary encoding of both filters: a fixed header carrying the hash-family
// parameters (so a decoded filter is immediately usable and provably
// compatible with its peers) followed by the packed bit vector.
//
//	magic   [4]byte  "BSF1" (Filter) or "BSC2" (CountingFilter)
//	kind    uint8    length of the family-kind string
//	        []byte   family kind
//	m       uint64   filter length in bits
//	k       uint32   hash functions
//	seed    uint64   family seed
//	n       uint64   insertion count (live insertions for a counting filter)
//	bits    []byte   bitset.Set encoding of the m bits
//
// A counting filter follows it with its counters of 2 or more, as it holds
// them (the bit vector says which counters are non-zero):
//
//	count   uint64   entries
//	over    []uint64 p<<8 | counter, ascending p, each counter ≥ 2 and bit p set
//
// "BSC1", a counting filter as m counter bytes in place of bits and over, is
// still read; nothing writes it.
const (
	filterMagic         = "BSF1"
	countingMagic       = "BSC2"
	legacyCountingMagic = "BSC1"
)

// encodeFilter returns the encoding shared by both filters: magic, family
// header and bit vector.
func encodeFilter(magic string, fam hashfam.Family, n uint64, bits *bitset.Set) ([]byte, error) {
	kind := string(fam.Kind())
	if len(kind) > 255 {
		return nil, fmt.Errorf("bloom: family kind %q too long", kind)
	}
	buf := []byte(magic)
	buf = append(buf, byte(len(kind)))
	buf = append(buf, kind...)
	buf = binary.LittleEndian.AppendUint64(buf, bits.Len())
	buf = binary.LittleEndian.AppendUint32(buf, uint32(fam.K()))
	buf = binary.LittleEndian.AppendUint64(buf, fam.Seed())
	buf = binary.LittleEndian.AppendUint64(buf, n)
	vec, err := bits.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return append(buf, vec...), nil
}

// MarshalBinary encodes the filter, including its hash-family parameters.
func (f *Filter) MarshalBinary() ([]byte, error) {
	return encodeFilter(filterMagic, f.fam, f.n, f.bits)
}

// MarshalBinary encodes the counting filter as it holds it: its bit vector
// and its counters of 2 or more.
func (c *CountingFilter) MarshalBinary() ([]byte, error) {
	buf, err := encodeFilter(countingMagic, c.fam, c.n, c.bits)
	if err != nil {
		return nil, err
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(c.over)))
	for _, e := range c.over {
		buf = binary.LittleEndian.AppendUint64(buf, e)
	}
	return buf, nil
}

// decodeHeader decodes the family header that follows a filter encoding's
// magic and returns the family, the insertion count and the bytes after the
// header. Those bytes bound m and k before anything is sized by them: the
// filter by m, a family's per-function tables by k.
func decodeHeader(data []byte) (fam hashfam.Family, n uint64, rest []byte, err error) {
	if len(data) < 1 || len(data) < 1+int(data[0])+28 {
		return nil, 0, nil, fmt.Errorf("bloom: truncated header")
	}
	kl := int(data[0])
	kind := hashfam.Kind(data[1 : 1+kl])
	data = data[1+kl:]
	m := binary.LittleEndian.Uint64(data[0:])
	k := binary.LittleEndian.Uint32(data[8:])
	seed := binary.LittleEndian.Uint64(data[12:])
	n = binary.LittleEndian.Uint64(data[20:])
	rest = data[28:]
	if limit := 8 * uint64(len(rest)); m > limit || uint64(k) > limit {
		return nil, 0, nil, fmt.Errorf("bloom: header m=%d k=%d but payload has %d bytes", m, k, len(rest))
	}
	if fam, err = hashfam.New(kind, m, int(k), seed); err != nil {
		return nil, 0, nil, fmt.Errorf("bloom: decoding family: %w", err)
	}
	return fam, n, rest, nil
}

// decodeBits decodes the m-bit vector at the front of data and returns it
// with the bytes after it.
func decodeBits(data []byte, m uint64) (*bitset.Set, []byte, error) {
	size := bitset.EncodedLen(m)
	if uint64(len(data)) < size {
		return nil, nil, fmt.Errorf("bloom: header m=%d but payload has %d bytes", m, len(data))
	}
	var bits bitset.Set
	if err := bits.UnmarshalBinary(data[:size]); err != nil {
		return nil, nil, err
	}
	if bits.Len() != m {
		return nil, nil, fmt.Errorf("bloom: header m=%d but payload has %d bits", m, bits.Len())
	}
	return &bits, data[size:], nil
}

// UnmarshalFilter decodes a filter produced by MarshalBinary,
// reconstructing its hash family from the embedded parameters.
func UnmarshalFilter(data []byte) (*Filter, error) {
	if len(data) < len(filterMagic) || string(data[:4]) != filterMagic {
		return nil, fmt.Errorf("bloom: bad magic")
	}
	fam, n, rest, err := decodeHeader(data[4:])
	if err != nil {
		return nil, err
	}
	bits, rest, err := decodeBits(rest, fam.M())
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("bloom: %d bytes after the filter", len(rest))
	}
	return &Filter{bits: bits, fam: fam, n: n}, nil
}

// UnmarshalCounting decodes a counting filter produced by its MarshalBinary
// ("BSC2") or written as m counter bytes ("BSC1"), reconstructing the hash
// family from the embedded parameters. The overflow list must be what the
// filter would hold: ascending positions whose bits are set, each counter 2
// or more, and nothing after it.
func UnmarshalCounting(data []byte) (*CountingFilter, error) {
	if len(data) < 4 || (string(data[:4]) != countingMagic && string(data[:4]) != legacyCountingMagic) {
		return nil, fmt.Errorf("bloom: bad counting magic")
	}
	fam, n, rest, err := decodeHeader(data[4:])
	if err != nil {
		return nil, err
	}
	m := fam.M()
	c := &CountingFilter{fam: fam, n: n}
	if string(data[:4]) == legacyCountingMagic {
		if uint64(len(rest)) != m {
			return nil, fmt.Errorf("bloom: header m=%d but payload has %d counters", m, len(rest))
		}
		c.bits = bitset.New(m)
		for p, cnt := range rest {
			if cnt > 0 {
				c.bits.Set(uint64(p))
			}
			if cnt >= 2 {
				c.over = append(c.over, uint64(p)<<8|uint64(cnt))
			}
		}
		return c, nil
	}
	if c.bits, rest, err = decodeBits(rest, m); err != nil {
		return nil, err
	}
	if len(rest) < 8 {
		return nil, fmt.Errorf("bloom: truncated counting overflow list")
	}
	count, rest := binary.LittleEndian.Uint64(rest), rest[8:]
	if len(rest)%8 != 0 || count != uint64(len(rest)/8) {
		return nil, fmt.Errorf("bloom: overflow list of %d entries in %d bytes", count, len(rest))
	}
	c.over = make([]uint64, count)
	for i := range c.over {
		e := binary.LittleEndian.Uint64(rest[8*i:])
		if p := e >> 8; p >= m || !c.bits.Test(p) || uint8(e) < 2 || (i > 0 && p <= c.over[i-1]>>8) {
			return nil, fmt.Errorf("bloom: overflow entry %d (position %d, counter %d) is not one the filter holds", i, e>>8, uint8(e))
		}
		c.over[i] = e
	}
	return c, nil
}
