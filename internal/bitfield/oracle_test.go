package bitfield

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// referenceEncode and referenceDecode are the bit-at-a-time codec Encode
// and Decode replaced, kept verbatim as the reference the word-parallel
// versions must match byte for byte and bit for bit.
func referenceEncode(anchor int64, s *Set) ([]byte, error) {
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

func referenceDecode(img []byte, n int) (anchor int64, s *Set, err error) {
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

// sameSet reports whether two sets hold the same bits in the same words —
// padding words included, so a decoder that leaks a bit past Len fails.
func sameSet(a, b *Set) bool {
	if a.n != b.n || len(a.words) != len(b.words) {
		return false
	}
	for i := range a.words {
		if a.words[i] != b.words[i] {
			return false
		}
	}
	return true
}

// checkAgainstOracle decodes img both ways for an n-bit map and reports
// any disagreement: error or not, anchor, every word of the set.
func checkAgainstOracle(img []byte, n int) error {
	wantAnchor, wantSet, wantErr := referenceDecode(img, n)
	gotAnchor, gotSet, gotErr := Decode(img, n)
	if (gotErr != nil) != (wantErr != nil) {
		return fmt.Errorf("Decode error %v, reference %v", gotErr, wantErr)
	}
	if gotErr != nil {
		if !errors.Is(gotErr, ErrCorrupt) {
			return fmt.Errorf("Decode error %v is not ErrCorrupt", gotErr)
		}
		return nil
	}
	if gotAnchor != wantAnchor {
		return fmt.Errorf("anchor %d, reference %d", gotAnchor, wantAnchor)
	}
	if !sameSet(gotSet, wantSet) {
		return fmt.Errorf("set words %x, reference %x", gotSet.words, wantSet.words)
	}
	return nil
}

// TestCodecMatchesReference encodes random sets at every width from 1 to
// 700 bits, all word and byte alignments included, with random anchors:
// the image must equal the reference encoder's byte for byte and decode
// to the same anchor and set under both decoders.
func TestCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for n := 1; n <= 700; n++ {
		for _, density := range []float64{0, 0.5, 1, rng.Float64()} {
			s := randomSet(rng, n, density)
			anchor := rng.Int63n(MaxAnchor + 1)
			if n%100 == 0 {
				anchor = MaxAnchor
			}
			img, err := Encode(anchor, s)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := referenceEncode(anchor, s)
			if !bytes.Equal(img, want) {
				t.Fatalf("n=%d anchor=%d: Encode %x, reference %x", n, anchor, img, want)
			}
			if err := checkAgainstOracle(img, n); err != nil {
				t.Fatalf("n=%d anchor=%d: %v", n, anchor, err)
			}
			if _, got, _ := Decode(img, n); !sameSet(got, s) {
				t.Fatalf("n=%d: round trip changed the set", n)
			}
		}
	}
}

// TestDecodeMasksPadding decodes random images — junk in the padding
// bits past the map included — and checks them against the reference,
// which never sets a bit at or past Len.
func TestDecodeMasksPadding(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for n := 1; n <= 700; n++ {
		img := make([]byte, (AnchorBits+n+7)/8)
		for trial := 0; trial < 4; trial++ {
			rng.Read(img)
			img[len(img)-1] |= 0xff >> uint((AnchorBits+n)%8) // set every padding bit
			if err := checkAgainstOracle(img, n); err != nil {
				t.Fatalf("n=%d image %x: %v", n, img, err)
			}
			_, s, _ := Decode(img, n)
			if last := s.NextSet(0); last >= n {
				t.Fatalf("n=%d: decoded bit %d past Len", n, last)
			}
		}
	}
}

// TestDecodeIntoOverwritesAndRejects: DecodeInto replaces every bit of a
// reused set, and a wrong-length image leaves it untouched.
func TestDecodeIntoOverwritesAndRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	dst := randomSet(rng, 600, 1)
	src := randomSet(rng, 600, 0.3)
	img, _ := Encode(4242, src)
	anchor, err := DecodeInto(img, dst)
	if err != nil || anchor != 4242 || !sameSet(dst, src) {
		t.Fatalf("DecodeInto: anchor %d err %v, set equal %v", anchor, err, sameSet(dst, src))
	}
	before := dst.Clone()
	if _, err := DecodeInto(img[:len(img)-1], dst); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated image: err %v, want ErrCorrupt", err)
	}
	if !sameSet(dst, before) {
		t.Fatal("a rejected image changed the set")
	}
}

// FuzzMapImage decodes arbitrary images at arbitrary widths: the decoder
// must agree with the reference, and every accepted image must re-encode
// to itself with its padding cleared.
func FuzzMapImage(f *testing.F) {
	for _, n := range []int{1, 4, 60, 64, 600, 700} {
		s := New(n)
		for i := 0; i < n; i += 3 {
			s.Set(i)
		}
		img, _ := Encode(MaxAnchor, s)
		f.Add(img, uint16(n))
	}
	f.Fuzz(func(t *testing.T, img []byte, width uint16) {
		n := 1 + int(width)%2048
		if err := checkAgainstOracle(img, n); err != nil {
			t.Fatalf("n=%d image %x: %v", n, img, err)
		}
		anchor, s, err := Decode(img, n)
		if err != nil {
			return
		}
		again, err := Encode(anchor, s)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), img...)
		if pad := (AnchorBits + n) % 8; pad != 0 {
			want[len(want)-1] &^= 0xff >> uint(pad)
		}
		if !bytes.Equal(again, want) {
			t.Fatalf("n=%d: re-encoded %x, image without padding %x", n, again, want)
		}
	})
}
