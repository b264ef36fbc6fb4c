// Package bitfield implements the fixed-width bitset used for buffer
// availability maps and their 620-bit wire encoding.
//
// Section 5.3 of the paper fixes the format: a node's buffer holds B=600
// segments, so availability is a 600-bit map (bit 1 = segment present),
// anchored by the 20-bit id of the first segment in the buffer (a source
// emits at most 864000 < 2^20 segments per day). One buffer-map exchange
// therefore costs 620 bits, the constant behind the communication-overhead
// metric of Figures 8 and 12.
package bitfield

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Set is a fixed-capacity bitset. The zero value is unusable; create one
// with New.
type Set struct {
	n     int
	words []uint64
}

// New returns a Set able to hold n bits, all clear. n must be positive.
func New(n int) *Set {
	if n <= 0 {
		panic(fmt.Sprintf("bitfield: New(%d): size must be positive", n))
	}
	return &Set{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the capacity in bits.
func (s *Set) Len() int { return s.n }

// check panics on out-of-range indexes; indexes come from internal buffer
// arithmetic, so a violation is a bug, not an input error.
func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitfield: index %d out of range [0,%d)", i, s.n))
	}
}

// Set sets bit i.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i>>6] |= 1 << uint(i&63)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[i>>6] &^= 1 << uint(i&63)
}

// Get reports bit i.
func (s *Set) Get(i int) bool {
	s.check(i)
	return s.words[i>>6]&(1<<uint(i&63)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CountFrom returns the number of set bits at indexes in [i, Len): a
// popcount rank over whole words with the first word masked. i below zero
// counts the whole set.
func (s *Set) CountFrom(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return 0
	}
	w := i >> 6
	c := bits.OnesCount64(s.words[w] >> uint(i&63))
	for _, word := range s.words[w+1:] {
		c += bits.OnesCount64(word)
	}
	return c
}

// Word64 returns bits [i, i+64) as one word, bit k of the result being
// bit i+k of the set. i need not be word-aligned and may lie partly or
// wholly outside [0, Len): positions outside read as zero.
func (s *Set) Word64(i int) uint64 {
	if i <= -64 || i >= s.n {
		return 0
	}
	if i < 0 {
		return s.words[0] << uint(-i)
	}
	// Bits at or past Len are never set, so the last word needs no mask.
	w, sh := i>>6, uint(i&63)
	v := s.words[w] >> sh
	if sh != 0 && w+1 < len(s.words) {
		v |= s.words[w+1] << (64 - sh)
	}
	return v
}

// SetWord64 overwrites bits [64w, 64w+64) with v, bit k of v becoming
// bit 64w+k; bits of v at or past Len are dropped. It is the word-at-a-time
// writer a map is filled with from aligned availability words.
func (s *Set) SetWord64(w int, v uint64) {
	if w < 0 || w >= len(s.words) {
		panic(fmt.Sprintf("bitfield: word %d out of range [0,%d)", w, len(s.words)))
	}
	if tail := s.n & 63; tail != 0 && w == len(s.words)-1 {
		v &= 1<<uint(tail) - 1
	}
	s.words[w] = v
}

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	c := New(s.n)
	copy(c.words, s.words)
	return c
}

// NextSet returns the index of the first set bit at or after i, or -1.
func (s *Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	w := i >> 6
	masked := s.words[w] >> uint(i&63)
	if masked != 0 {
		idx := i + bits.TrailingZeros64(masked)
		if idx < s.n {
			return idx
		}
		return -1
	}
	for w++; w < len(s.words); w++ {
		if s.words[w] != 0 {
			idx := w<<6 + bits.TrailingZeros64(s.words[w])
			if idx < s.n {
				return idx
			}
			return -1
		}
	}
	return -1
}

// NextClear returns the index of the first clear bit at or after i, or -1
// when every bit in [i, Len) is set.
func (s *Set) NextClear(i int) int {
	if i < 0 {
		i = 0
	}
	for ; i < s.n; i++ {
		// Skip fully-set words in bulk.
		if i&63 == 0 {
			for i>>6 < len(s.words) && s.words[i>>6] == ^uint64(0) {
				i += 64
			}
			if i >= s.n {
				return -1
			}
		}
		if !s.Get(i) {
			return i
		}
	}
	return -1
}

// Wire format ----------------------------------------------------------------

// AnchorBits is the width of the buffer-map anchor id (Section 5.3).
const AnchorBits = 20

// MaxAnchor is the largest anchor id expressible on the wire.
const MaxAnchor = 1<<AnchorBits - 1

// WireBits returns the size in bits of an encoded map with n availability
// bits: n bits of map plus the 20-bit anchor. For the paper's B=600 this is
// the canonical 620.
func WireBits(n int) int { return n + AnchorBits }

// ErrCorrupt is returned when a wire image cannot be decoded.
var ErrCorrupt = errors.New("bitfield: corrupt wire image")

// ErrAnchorRange is returned when the anchor id does not fit in 20 bits.
var ErrAnchorRange = errors.New("bitfield: anchor id exceeds 20-bit range")

// The map bits start at wire bit AnchorBits = 2 bytes + 4 bits, so map
// bits [8k-4, 8k+4) fill wire byte 2+k, most significant bit first. The
// codec moves them 64 at a time: Word64 reads a window of 64 map bits,
// and bits.Reverse64 turns it into the big-endian image of the eight
// wire bytes that window fills.
const mapByte0 = AnchorBits / 8

// mapShift is the map's bit offset inside wire byte mapByte0.
const mapShift = AnchorBits % 8

// Encode serializes anchor and the set into a byte slice: 20-bit anchor
// (big-endian, packed) followed by the map bits, zero-padded to a byte
// boundary. Wire cost accounting should use WireBits, not len(bytes)*8.
func Encode(anchor int64, s *Set) ([]byte, error) {
	if anchor < 0 || anchor > MaxAnchor {
		return nil, fmt.Errorf("%w: %d", ErrAnchorRange, anchor)
	}
	out := make([]byte, (AnchorBits+s.n+7)/8)
	for k := 0; mapByte0+k < len(out); k += 8 {
		v := bits.Reverse64(s.Word64(8*k - mapShift))
		if dst := out[mapByte0+k:]; len(dst) >= 8 {
			binary.BigEndian.PutUint64(dst, v)
		} else {
			for i := range dst {
				dst[i] = byte(v >> (56 - 8*i))
			}
		}
	}
	// Word64 reads the 4 bits before the map as zero, leaving the high
	// nibble of byte 2 to the anchor's low bits.
	out[0] = byte(anchor >> 12)
	out[1] = byte(anchor >> 4)
	out[2] |= byte(anchor << (8 - mapShift))
	return out, nil
}

// Decode parses a wire image produced by Encode for a map of n bits.
func Decode(img []byte, n int) (anchor int64, s *Set, err error) {
	s = New(n)
	anchor, err = DecodeInto(img, s)
	if err != nil {
		return 0, nil, err
	}
	return anchor, s, nil
}

// DecodeInto parses a wire image for a map of s.Len() bits into s,
// overwriting every bit — the allocation-free form of Decode for a
// receiver that keeps one set per neighbour. A rejected image leaves s
// untouched. Padding bits past the map are masked off, so the set keeps
// its invariant that no bit at or past Len is set.
func DecodeInto(img []byte, s *Set) (anchor int64, err error) {
	if need := (AnchorBits + s.n + 7) / 8; len(img) != need {
		return 0, fmt.Errorf("%w: got %d bytes, want %d", ErrCorrupt, len(img), need)
	}
	for w := range s.words {
		// Wire bytes 2+8w .. 9+8w hold map bits 64w-4 .. 64w+59; the
		// top nibble of byte 10+8w holds bits 64w+60 .. 64w+63.
		lo := mapByte0 + 8*w
		s.words[w] = bits.Reverse64(loadBE(img, lo))>>mapShift |
			uint64(bits.Reverse8(byteAt(img, lo+8)))<<(64-mapShift)
	}
	if tail := s.n & 63; tail != 0 {
		s.words[len(s.words)-1] &= 1<<uint(tail) - 1
	}
	return int64(img[0])<<12 | int64(img[1])<<4 | int64(img[2]>>(8-mapShift)), nil
}

// loadBE reads 8 bytes at off as a big-endian word, bytes past the end of
// b reading as zero.
func loadBE(b []byte, off int) uint64 {
	if off+8 <= len(b) {
		return binary.BigEndian.Uint64(b[off:])
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(byteAt(b, off+i))
	}
	return v
}

// byteAt reads b[i], or zero past the end of b.
func byteAt(b []byte, i int) byte {
	if i < len(b) {
		return b[i]
	}
	return 0
}
