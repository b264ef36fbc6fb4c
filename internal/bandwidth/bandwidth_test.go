package bandwidth

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDrawRateBoundsAndMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		r := DrawRate(rng)
		if r < MinRate || r > MaxRate {
			t.Fatalf("rate %v outside [%d, %d]", r, MinRate, MaxRate)
		}
		if r != math.Floor(r) {
			t.Fatalf("rate %v not integral", r)
		}
		sum += r
	}
	mean := sum / n
	// Section 5.1: rates span 300 kbps-1 Mbps with a 450 kbps average,
	// i.e. mean I ≈ 15 segments/s (integer rates put it slightly below).
	if mean < 14.0 || mean < MinRate || mean > 16.0 {
		t.Errorf("mean rate %v, want ≈ 15", mean)
	}
}

func TestAssign(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	profiles := Assign(100, rng)
	if len(profiles) != 100 {
		t.Fatalf("got %d profiles", len(profiles))
	}
	for _, p := range profiles {
		if p.In < MinRate || p.In > MaxRate || p.Out < MinRate || p.Out > MaxRate {
			t.Fatalf("profile out of range: %+v", p)
		}
	}
}

func TestSourceProfile(t *testing.T) {
	p := SourceProfile()
	if p.In != 0 {
		t.Error("source must have zero inbound")
	}
	if p.Out != 60 {
		t.Errorf("source outbound %v, want 60", p.Out)
	}
}

func TestBudgetRefillAndTake(t *testing.T) {
	b := NewBudget(15)
	if b.Available() != 0 {
		t.Fatal("fresh budget not empty")
	}
	b.Refill(1.0)
	if b.Available() != 15 {
		t.Fatalf("available = %d, want 15", b.Available())
	}
	if !b.Take(10) || b.Available() != 5 {
		t.Fatal("Take(10) failed")
	}
	if b.Take(6) {
		t.Fatal("overdraw allowed")
	}
	if !b.Take(5) || b.Available() != 0 {
		t.Fatal("exact take failed")
	}
}

func TestBudgetFractionalCarry(t *testing.T) {
	// Rate 2.5 at τ=1: availability alternates 2,3,2,3 via the carry.
	b := NewBudget(2.5)
	got := []int{}
	for i := 0; i < 4; i++ {
		b.Refill(1.0)
		got = append(got, b.Available())
		b.Take(b.Available())
	}
	total := got[0] + got[1] + got[2] + got[3]
	if total != 10 {
		t.Errorf("4 periods at rate 2.5 yielded %d segments (%v), want 10", total, got)
	}
}

func TestBudgetDiscardsWholeLeftovers(t *testing.T) {
	// Unused whole segments do not accumulate across periods (link
	// capacity is not storable).
	b := NewBudget(10)
	b.Refill(1.0)
	b.Refill(1.0)
	if b.Available() != 10 {
		t.Errorf("available = %d after double refill, want 10", b.Available())
	}
}

func TestBudgetSetRate(t *testing.T) {
	b := NewBudget(5)
	b.SetRate(60)
	b.Refill(1.0)
	if b.Available() != 60 {
		t.Errorf("available = %d, want 60", b.Available())
	}
}

func TestBudgetPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"negative rate": func() { NewBudget(-1) },
		"negative set":  func() { NewBudget(1).SetRate(-2) },
		"negative take": func() { b := NewBudget(1); b.Refill(1); b.Take(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBitsForSegments(t *testing.T) {
	// One segment is 30 kb = 30720 bits (Section 5.3 arithmetic).
	if got := BitsForSegments(1); got != 30*1024 {
		t.Fatalf("BitsForSegments(1) = %d", got)
	}
	if got := BitsForSegments(10); got != 10*30*1024 {
		t.Fatalf("BitsForSegments(10) = %d", got)
	}
}

func TestQuickBudgetNeverOverdraws(t *testing.T) {
	f := func(rateRaw uint8, takes []uint8) bool {
		rate := float64(rateRaw%40) + 0.5
		b := NewBudget(rate)
		spentTotal := 0
		periods := 0
		for _, tk := range takes {
			b.Refill(1.0)
			periods++
			n := int(tk) % 8
			if b.Take(n) {
				spentTotal += n
			}
			// Per-period spend can never exceed rate+1 (carry bound).
			if float64(spentTotal) > rate*float64(periods)+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
