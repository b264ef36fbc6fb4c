package bitfield

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	s := New(600)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 599} {
		if s.Get(i) {
			t.Fatalf("fresh set has bit %d", i)
		}
		s.Set(i)
		if !s.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
		s.Clear(i)
		if s.Get(i) {
			t.Fatalf("bit %d not cleared", i)
		}
	}
}

func TestCountAndReset(t *testing.T) {
	s := New(600)
	for i := 0; i < 600; i += 3 {
		s.Set(i)
	}
	if got := s.Count(); got != 200 {
		t.Fatalf("Count = %d, want 200", got)
	}
	s.Reset()
	if got := s.Count(); got != 0 {
		t.Fatalf("Count after Reset = %d", got)
	}
}

func TestNextSet(t *testing.T) {
	s := New(200)
	s.Set(5)
	s.Set(64)
	s.Set(199)
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 199}, {199, 199}, {200, -1}, {-3, 5},
	}
	for _, c := range cases {
		if got := s.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
}

func TestNextClear(t *testing.T) {
	s := New(130)
	for i := 0; i < 130; i++ {
		s.Set(i)
	}
	if got := s.NextClear(0); got != -1 {
		t.Fatalf("NextClear on full set = %d, want -1", got)
	}
	s.Clear(128)
	if got := s.NextClear(0); got != 128 {
		t.Fatalf("NextClear = %d, want 128", got)
	}
	if got := s.NextClear(129); got != -1 {
		t.Fatalf("NextClear(129) = %d, want -1", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New(64)
	s.Set(10)
	c := s.Clone()
	c.Set(20)
	if s.Get(20) {
		t.Error("mutating clone changed original")
	}
	if !c.Get(10) {
		t.Error("clone lost original bit")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, i := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", i)
				}
			}()
			s.Get(i)
		}()
	}
}

func TestWireBits(t *testing.T) {
	// Section 5.3: 600 map bits + 20 anchor bits = 620.
	if got := WireBits(600); got != 620 {
		t.Fatalf("WireBits(600) = %d, want 620", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(700)
		s := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				s.Set(i)
			}
		}
		anchor := rng.Int63n(MaxAnchor + 1)
		img, err := Encode(anchor, s)
		if err != nil {
			t.Fatal(err)
		}
		if want := (WireBits(n) + 7) / 8; len(img) != want {
			t.Fatalf("image size %d bytes, want %d", len(img), want)
		}
		gotAnchor, gotSet, err := Decode(img, n)
		if err != nil {
			t.Fatal(err)
		}
		if gotAnchor != anchor {
			t.Fatalf("anchor %d, want %d", gotAnchor, anchor)
		}
		for i := 0; i < n; i++ {
			if gotSet.Get(i) != s.Get(i) {
				t.Fatalf("trial %d: bit %d mismatch", trial, i)
			}
		}
	}
}

func TestEncodeAnchorRange(t *testing.T) {
	s := New(8)
	if _, err := Encode(MaxAnchor+1, s); err == nil {
		t.Error("anchor beyond 20 bits must fail")
	}
	if _, err := Encode(-1, s); err == nil {
		t.Error("negative anchor must fail")
	}
	if _, err := Encode(MaxAnchor, s); err != nil {
		t.Errorf("anchor at limit failed: %v", err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	s := New(600)
	img, err := Encode(7, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(img[:len(img)-1], 600); err == nil {
		t.Error("truncated image must fail")
	}
	if _, _, err := Decode(append(img, 0), 600); err == nil {
		t.Error("oversized image must fail")
	}
}

func TestQuickCountMatchesSetBits(t *testing.T) {
	f := func(idxs []uint16) bool {
		s := New(1024)
		want := map[int]bool{}
		for _, i := range idxs {
			j := int(i) % 1024
			s.Set(j)
			want[j] = true
		}
		if s.Count() != len(want) {
			return false
		}
		// NextSet enumeration must visit exactly the set bits.
		seen := 0
		for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) {
			if !want[i] {
				return false
			}
			seen++
		}
		return seen == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomSet returns a set of n bits, each set with the given density.
func randomSet(rng *rand.Rand, n int, density float64) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			s.Set(i)
		}
	}
	return s
}

// TestCountFromMatchesScan pins the popcount rank against the NextSet walk
// it replaced, at every index of random sets — both edges, word
// boundaries and out-of-range starts included.
func TestCountFromMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 63, 64, 65, 600, 640} {
		for _, density := range []float64{0, 0.03, 0.5, 1} {
			s := randomSet(rng, n, density)
			for i := -2; i <= n+2; i++ {
				want := 0
				for j := s.NextSet(i); j >= 0; j = s.NextSet(j + 1) {
					want++
				}
				if got := s.CountFrom(i); got != want {
					t.Fatalf("n=%d density=%v: CountFrom(%d) = %d, scan counts %d", n, density, i, got, want)
				}
			}
		}
	}
}

// TestWord64MatchesGet reads every 64-bit window that overlaps the set,
// aligned or not, and a few that miss it entirely: each bit must equal Get
// inside [0, Len) and read zero outside.
func TestWord64MatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 63, 64, 65, 600, 640} {
		s := randomSet(rng, n, 0.4)
		for i := -130; i <= n+70; i++ {
			got := s.Word64(i)
			for k := 0; k < 64; k++ {
				want := i+k >= 0 && i+k < n && s.Get(i+k)
				if got&(1<<uint(k)) != 0 != want {
					t.Fatalf("n=%d: Word64(%d) bit %d = %v, Get(%d) = %v", n, i, k, !want, i+k, want)
				}
			}
		}
	}
}

// TestSetWord64 overwrites every word of sets whose length is and is not
// a multiple of 64: each bit of the word lands at 64w+k, earlier words
// keep theirs, and bits past Len are dropped, so Count sees none of them.
func TestSetWord64(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 63, 64, 65, 600, 640} {
		s := randomSet(rng, n, 0.5)
		want := make([]bool, n)
		for w := 0; w < (n+63)/64; w++ {
			v := rng.Uint64()
			s.SetWord64(w, v)
			for k := 0; k < 64 && w*64+k < n; k++ {
				want[w*64+k] = v&(1<<uint(k)) != 0
			}
		}
		count := 0
		for i, b := range want {
			if s.Get(i) != b {
				t.Fatalf("n=%d: bit %d = %v after SetWord64, want %v", n, i, !b, b)
			}
			if b {
				count++
			}
		}
		if s.Count() != count {
			t.Fatalf("n=%d: Count = %d, want %d (bits past Len kept)", n, s.Count(), count)
		}
	}
}
