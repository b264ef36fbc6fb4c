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

// Encode serializes anchor and the set into a byte slice: 20-bit anchor
// (big-endian, packed) followed by the map bits, zero-padded to a byte
// boundary. Wire cost accounting should use WireBits, not len(bytes)*8.
func Encode(anchor int64, s *Set) ([]byte, error) {
	if anchor < 0 || anchor > MaxAnchor {
		return nil, fmt.Errorf("%w: %d", ErrAnchorRange, anchor)
	}
	nbits := AnchorBits + s.n
	out := make([]byte, (nbits+7)/8)
	// Pack the anchor into the first 20 bits.
	putBits(out, 0, AnchorBits, uint64(anchor))
	for i := 0; i < s.n; i++ {
		if s.Get(i) {
			setWireBit(out, AnchorBits+i)
		}
	}
	return out, nil
}

// Decode parses a wire image produced by Encode for a map of n bits.
func Decode(img []byte, n int) (anchor int64, s *Set, err error) {
	need := (AnchorBits + n + 7) / 8
	if len(img) != need {
		return 0, nil, fmt.Errorf("%w: got %d bytes, want %d", ErrCorrupt, len(img), need)
	}
	anchor = int64(getBits(img, 0, AnchorBits))
	s = New(n)
	for i := 0; i < n; i++ {
		if getWireBit(img, AnchorBits+i) {
			s.Set(i)
		}
	}
	return anchor, s, nil
}

func setWireBit(b []byte, i int) { b[i>>3] |= 1 << uint(7-i&7) }

func getWireBit(b []byte, i int) bool { return b[i>>3]&(1<<uint(7-i&7)) != 0 }

// putBits writes the low `width` bits of v into b starting at bit offset
// off, most significant bit first.
func putBits(b []byte, off, width int, v uint64) {
	for i := 0; i < width; i++ {
		if v&(1<<uint(width-1-i)) != 0 {
			setWireBit(b, off+i)
		}
	}
}

// getBits reads `width` bits starting at bit offset off, MSB first.
func getBits(b []byte, off, width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		v <<= 1
		if getWireBit(b, off+i) {
			v |= 1
		}
	}
	return v
}
