package bloom

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/hashfam"
)

// Binary encoding of a Filter: a fixed header carrying the hash-family
// parameters (so a decoded filter is immediately usable and provably
// compatible with its peers) followed by the packed bit vector.
//
//	magic   [4]byte  "BSF1"
//	kind    uint8    length of the family-kind string
//	        []byte   family kind
//	m       uint64   filter length in bits
//	k       uint32   hash functions
//	seed    uint64   family seed
//	n       uint64   insertion count
//	bits    []byte   bitset.Set encoding
const filterMagic = "BSF1"

// MarshalBinary encodes the filter, including its hash-family parameters.
func (f *Filter) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(filterMagic)
	kind := string(f.fam.Kind())
	if len(kind) > 255 {
		return nil, fmt.Errorf("bloom: family kind %q too long", kind)
	}
	buf.WriteByte(byte(len(kind)))
	buf.WriteString(kind)
	var hdr [28]byte
	binary.LittleEndian.PutUint64(hdr[0:], f.M())
	binary.LittleEndian.PutUint32(hdr[8:], uint32(f.K()))
	binary.LittleEndian.PutUint64(hdr[12:], f.fam.Seed())
	binary.LittleEndian.PutUint64(hdr[20:], f.n)
	buf.Write(hdr[:])
	bits, err := f.bits.MarshalBinary()
	if err != nil {
		return nil, err
	}
	buf.Write(bits)
	return buf.Bytes(), nil
}

// Binary encoding of a CountingFilter: the same family header as a plain
// filter (magic "BSC1") followed by the raw counter array.
//
//	magic   [4]byte  "BSC1"
//	kind    uint8    length of the family-kind string
//	        []byte   family kind
//	m       uint64   counter array length
//	k       uint32   hash functions
//	seed    uint64   family seed
//	n       uint64   live insertion count
//	counts  []byte   m 8-bit counters
const countingMagic = "BSC1"

// MarshalBinary encodes the counting filter, including its hash-family
// parameters. The counters are expanded straight into the encoding.
func (c *CountingFilter) MarshalBinary() ([]byte, error) {
	kind := string(c.fam.Kind())
	if len(kind) > 255 {
		return nil, fmt.Errorf("bloom: family kind %q too long", kind)
	}
	buf := make([]byte, 0, len(countingMagic)+1+len(kind)+28+int(c.M()))
	buf = append(buf, countingMagic...)
	buf = append(buf, byte(len(kind)))
	buf = append(buf, kind...)
	buf = binary.LittleEndian.AppendUint64(buf, c.M())
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.K()))
	buf = binary.LittleEndian.AppendUint64(buf, c.fam.Seed())
	buf = binary.LittleEndian.AppendUint64(buf, c.n)
	counts := buf[len(buf) : len(buf)+int(c.M())]
	c.expand(counts)
	return buf[:len(buf)+len(counts)], nil
}

// UnmarshalCounting decodes a counting filter produced by its
// MarshalBinary, reconstructing the hash family from the embedded
// parameters.
func UnmarshalCounting(data []byte) (*CountingFilter, error) {
	if len(data) < len(countingMagic)+1 || string(data[:4]) != countingMagic {
		return nil, fmt.Errorf("bloom: bad counting magic")
	}
	data = data[4:]
	kl := int(data[0])
	if len(data) < 1+kl+28 {
		return nil, fmt.Errorf("bloom: truncated counting header")
	}
	kind := hashfam.Kind(data[1 : 1+kl])
	data = data[1+kl:]
	m := binary.LittleEndian.Uint64(data[0:])
	k := binary.LittleEndian.Uint32(data[8:])
	seed := binary.LittleEndian.Uint64(data[12:])
	n := binary.LittleEndian.Uint64(data[20:])
	data = data[28:]
	if uint64(len(data)) != m {
		return nil, fmt.Errorf("bloom: header m=%d but payload has %d counters", m, len(data))
	}
	if uint64(k) > 8*m {
		return nil, fmt.Errorf("bloom: header k=%d over m=%d counters", k, m)
	}
	fam, err := hashfam.New(kind, m, int(k), seed)
	if err != nil {
		return nil, fmt.Errorf("bloom: decoding family: %w", err)
	}
	return fromCounters(fam, data, n), nil
}

// UnmarshalFilter decodes a filter produced by MarshalBinary,
// reconstructing its hash family from the embedded parameters.
func UnmarshalFilter(data []byte) (*Filter, error) {
	if len(data) < len(filterMagic)+1 || string(data[:4]) != filterMagic {
		return nil, fmt.Errorf("bloom: bad magic")
	}
	data = data[4:]
	kl := int(data[0])
	if len(data) < 1+kl+28 {
		return nil, fmt.Errorf("bloom: truncated header")
	}
	kind := hashfam.Kind(data[1 : 1+kl])
	data = data[1+kl:]
	m := binary.LittleEndian.Uint64(data[0:])
	k := binary.LittleEndian.Uint32(data[8:])
	seed := binary.LittleEndian.Uint64(data[12:])
	n := binary.LittleEndian.Uint64(data[20:])
	data = data[28:]
	// The payload's own length bounds m and k before anything is sized by
	// them: the filter by m, a family's per-function tables by k.
	if limit := 8 * uint64(len(data)); m > limit || uint64(k) > limit {
		return nil, fmt.Errorf("bloom: header m=%d k=%d but payload has %d bytes", m, k, len(data))
	}
	fam, err := hashfam.New(kind, m, int(k), seed)
	if err != nil {
		return nil, fmt.Errorf("bloom: decoding family: %w", err)
	}
	f := New(fam)
	if err := f.bits.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	if f.bits.Len() != m {
		return nil, fmt.Errorf("bloom: header m=%d but payload has %d bits", m, f.bits.Len())
	}
	f.n = n
	return f, nil
}
