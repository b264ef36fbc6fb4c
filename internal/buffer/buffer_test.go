package buffer

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gossipstream/internal/bitfield"
	"gossipstream/internal/segment"
)

func TestInsertAndHas(t *testing.T) {
	b := New(4)
	if b.Has(1) {
		t.Fatal("empty buffer has segment")
	}
	if ev, ok := b.Insert(1); !ok || ev != segment.None {
		t.Fatalf("Insert(1) = (%v, %v)", ev, ok)
	}
	if !b.Has(1) || b.Len() != 1 {
		t.Fatal("segment not stored")
	}
	if _, ok := b.Insert(1); ok {
		t.Fatal("duplicate insert must be a no-op")
	}
	if b.Len() != 1 {
		t.Fatal("duplicate insert changed length")
	}
}

func TestFIFOEviction(t *testing.T) {
	b := New(3)
	b.Insert(10)
	b.Insert(11)
	b.Insert(12)
	ev, ok := b.Insert(13)
	if !ok || ev != 10 {
		t.Fatalf("evicted %v, want 10", ev)
	}
	if b.Has(10) {
		t.Error("evicted segment still present")
	}
	// Eviction follows insertion order even when ids arrive out of order.
	b = New(3)
	b.Insert(20)
	b.Insert(5) // older id inserted later
	b.Insert(30)
	ev, _ = b.Insert(40)
	if ev != 20 {
		t.Fatalf("evicted %v, want first-inserted 20", ev)
	}
	ev, _ = b.Insert(50)
	if ev != 5 {
		t.Fatalf("evicted %v, want second-inserted 5", ev)
	}
}

func TestPositionFromTail(t *testing.T) {
	b := New(5)
	for id := segment.ID(0); id < 5; id++ {
		b.Insert(id)
	}
	// Newest (id 4) has position 1; oldest (id 0) position 5 (Table 2).
	for id := segment.ID(0); id < 5; id++ {
		want := 5 - int(id)
		if got := b.PositionFromTail(id); got != want {
			t.Errorf("position of %d = %d, want %d", id, got, want)
		}
	}
	if got := b.PositionFromTail(99); got != 0 {
		t.Errorf("position of absent segment = %d, want 0", got)
	}
	// After eviction, positions shift.
	b.Insert(5) // evicts 0
	if got := b.PositionFromTail(1); got != 5 {
		t.Errorf("position of oldest after eviction = %d, want 5", got)
	}
	if got := b.PositionFromTail(5); got != 1 {
		t.Errorf("position of newest = %d, want 1", got)
	}
}

func TestOldestNewestMinMax(t *testing.T) {
	b := New(4)
	if b.Oldest() != segment.None || b.Newest() != segment.None {
		t.Fatal("empty buffer Oldest/Newest must be None")
	}
	if b.MinID() != segment.None || b.MaxSeen() != segment.None {
		t.Fatal("empty buffer MinID/MaxSeen must be None")
	}
	b.Insert(7)
	b.Insert(3)
	b.Insert(9)
	if b.Oldest() != 7 || b.Newest() != 9 {
		t.Fatalf("Oldest=%v Newest=%v", b.Oldest(), b.Newest())
	}
	if b.MinID() != 3 {
		t.Fatalf("MinID=%v", b.MinID())
	}
	if b.MaxSeen() != 9 {
		t.Fatalf("MaxSeen=%v", b.MaxSeen())
	}
}

func TestContentsOrder(t *testing.T) {
	b := New(3)
	b.Insert(4)
	b.Insert(2)
	b.Insert(8)
	b.Insert(6) // evicts 4
	got := b.Contents()
	want := []segment.ID{2, 8, 6}
	if len(got) != len(want) {
		t.Fatalf("contents %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("contents %v, want %v", got, want)
		}
	}
}

func TestConsecutiveFrom(t *testing.T) {
	b := New(10)
	for _, id := range []segment.ID{5, 6, 7, 9} {
		b.Insert(id)
	}
	if got := b.ConsecutiveFrom(5); got != 3 {
		t.Errorf("ConsecutiveFrom(5) = %d, want 3", got)
	}
	if got := b.ConsecutiveFrom(8); got != 0 {
		t.Errorf("ConsecutiveFrom(8) = %d, want 0", got)
	}
	if got := b.ConsecutiveFrom(9); got != 1 {
		t.Errorf("ConsecutiveFrom(9) = %d, want 1", got)
	}
}

func TestRebaseOnLowInsert(t *testing.T) {
	b := New(8)
	b.Insert(1000)
	b.Insert(995) // forces a downward rebase of the dense index
	b.Insert(1001)
	for _, id := range []segment.ID{1000, 995, 1001} {
		if !b.Has(id) {
			t.Errorf("segment %d lost after rebase", id)
		}
	}
	if b.Has(996) || b.Has(999) {
		t.Error("phantom segments after rebase")
	}
}

// TestDescendingInsertsRebaseLogarithmically pins the dense index's
// downward growth: a fresh buffer that receives ever-lower ids (a joiner
// filling its window from the live edge down) allocates O(log n) times,
// not once per insert, and the rising id that follows allocates nothing.
func TestDescendingInsertsRebaseLogarithmically(t *testing.T) {
	for _, n := range []int{1 << 10, 1 << 14} {
		const top = 1<<20 - 1 // top+1 opens a new availability word
		allocs := testing.AllocsPerRun(5, func() {
			b := New(n)
			for id := segment.ID(top); id > top-segment.ID(n); id-- {
				b.Insert(id)
			}
		})
		// New's four allocations, then at most one slots and one avail
		// reallocation per doubling.
		if limit := float64(4 + 2*bits.Len(uint(n))); allocs > limit {
			t.Errorf("n=%d: %.0f allocations for descending inserts, want at most %.0f", n, allocs, limit)
		}
		b := New(n)
		for id := segment.ID(top); id > top-segment.ID(n); id-- {
			b.Insert(id)
		}
		if rising := testing.AllocsPerRun(1, func() { b.Insert(top + 1) }); rising != 0 {
			t.Errorf("n=%d: the next rising id after a rebase allocates %.0f times", n, rising)
		}
		for id := segment.ID(top - 1); id > top-segment.ID(n); id -= 97 { // top+1 evicted top
			if !b.Has(id) {
				t.Fatalf("n=%d: segment %d lost across the rebases", n, id)
			}
		}
	}
}

func TestSnapshotAndWire(t *testing.T) {
	b := New(600)
	for id := segment.ID(100); id < 160; id++ {
		if id%7 != 0 {
			b.Insert(id)
		}
	}
	m := b.Snapshot()
	if m.Anchor != 100 && b.MinID() != m.Anchor {
		t.Fatalf("anchor %d, want MinID %d", m.Anchor, b.MinID())
	}
	for id := segment.ID(90); id < 170; id++ {
		if m.Has(id) != b.Has(id) {
			t.Fatalf("map/buffer disagree at %d", id)
		}
	}
	if m.WireBits() != 620 {
		t.Fatalf("WireBits = %d, want 620", m.WireBits())
	}
	img, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeMap(img, 600)
	if err != nil {
		t.Fatal(err)
	}
	if back.Anchor != m.Anchor || back.Count() != m.Count() {
		t.Fatalf("decoded anchor=%d count=%d, want %d/%d", back.Anchor, back.Count(), m.Anchor, m.Count())
	}
}

func TestMapPositionEstimateMatchesInOrderBuffer(t *testing.T) {
	// When segments arrive in id order, the wire map's position estimate
	// equals the true FIFO position (the basis for using eq. 8 from local
	// information only).
	b := New(50)
	for id := segment.ID(0); id < 50; id++ {
		b.Insert(id)
	}
	m := b.Snapshot()
	for id := segment.ID(0); id < 50; id++ {
		if got, want := m.PositionFromTail(id), b.PositionFromTail(id); got != want {
			t.Fatalf("position estimate of %d = %d, true = %d", id, got, want)
		}
	}
}

func TestQuickFIFOInvariants(t *testing.T) {
	// Properties: Len <= Cap; eviction count = inserts - Len; all held ids
	// are distinct; position-from-tail is a bijection onto [1, Len].
	f := func(raw []uint16, capRaw uint8) bool {
		capacity := 1 + int(capRaw)%64
		b := New(capacity)
		inserted := 0
		for _, r := range raw {
			if _, ok := b.Insert(segment.ID(r)); ok {
				inserted++
			}
		}
		if b.Len() > capacity {
			return false
		}
		contents := b.Contents()
		if len(contents) != b.Len() {
			return false
		}
		seenPos := map[int]bool{}
		seenID := map[segment.ID]bool{}
		for _, id := range contents {
			if seenID[id] {
				return false
			}
			seenID[id] = true
			p := b.PositionFromTail(id)
			if p < 1 || p > b.Len() || seenPos[p] {
				return false
			}
			seenPos[p] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRingMatchesReferenceFIFO drives buffers of several capacities
// through many wrap-arounds of their ring, with duplicates and
// out-of-order ids, against a plain slice kept oldest first. After every
// insert the evicted id, Oldest, Newest, Contents and every held id's
// PositionFromTail must be what the slice says.
func TestRingMatchesReferenceFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, capacity := range []int{1, 2, 3, 7, 64, 600} {
		b := New(capacity)
		var fifo []segment.ID // oldest first
		next := segment.ID(0)
		for step := 0; step < 12*capacity+50; step++ {
			id := next
			switch rng.Intn(4) {
			case 0: // a hole filled late, or a duplicate
				id = next - segment.ID(rng.Intn(2*capacity+2))
				if id < 0 {
					id = 0
				}
			default:
				next++
			}
			held := slices.Contains(fifo, id)
			wantEvicted := segment.None
			if !held {
				if len(fifo) == capacity {
					wantEvicted, fifo = fifo[0], fifo[1:]
				}
				fifo = append(fifo, id)
			}
			evicted, ok := b.Insert(id)
			if ok == held || evicted != wantEvicted {
				t.Fatalf("cap %d step %d: Insert(%d) = (%d, %v), want (%d, %v)", capacity, step, id, evicted, ok, wantEvicted, !held)
			}
			if got := b.Contents(); !slices.Equal(got, fifo) {
				t.Fatalf("cap %d step %d: Contents = %v, want %v", capacity, step, got, fifo)
			}
			if b.Oldest() != fifo[0] || b.Newest() != fifo[len(fifo)-1] {
				t.Fatalf("cap %d step %d: Oldest/Newest = %d/%d, want %d/%d", capacity, step, b.Oldest(), b.Newest(), fifo[0], fifo[len(fifo)-1])
			}
			for i, h := range fifo {
				if got, want := b.PositionFromTail(h), len(fifo)-i; got != want {
					t.Fatalf("cap %d step %d: PositionFromTail(%d) = %d, want %d", capacity, step, h, got, want)
				}
			}
			if wantEvicted != segment.None && b.PositionFromTail(wantEvicted) != 0 {
				t.Fatalf("cap %d step %d: evicted %d still has a position", capacity, step, wantEvicted)
			}
		}
	}
}

// TestAvailQueriesMatchRingScan pins MinID and SnapshotInto, which read
// the availability words, against scans of the FIFO ring (Contents): over
// random inserts that run ahead, fill holes late, evict, and reach below
// the index's base (downward rebases), for anchors at, below and above the
// held range, word-aligned or not.
func TestAvailQueriesMatchRingScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, capacity := range []int{1, 7, 64, 65, 600} {
		b := New(capacity)
		snap := b.Snapshot()
		next := segment.ID(5000 + rng.Intn(64))
		rebases := 0
		for step := 0; step < 20*capacity+200; step++ {
			id := next
			switch r := rng.Intn(10); {
			case r < 2: // a hole filled late, or a duplicate
				id = max(0, next-segment.ID(rng.Intn(2*capacity+2)))
			case r == 2: // far below everything held: a downward rebase
				id = max(0, next-segment.ID(capacity+rng.Intn(4*capacity+130)))
			default:
				next += segment.ID(1 + rng.Intn(3))
			}
			if b.base >= 0 && id < b.base {
				rebases++
			}
			b.Insert(id)
			held := b.Contents()
			wantMin := segment.None
			if len(held) > 0 {
				wantMin = slices.Min(held)
			}
			if got := b.MinID(); got != wantMin {
				t.Fatalf("cap %d step %d: MinID = %d, ring scan says %d", capacity, step, got, wantMin)
			}
			anchors := []segment.ID{0, wantMin, b.MaxSeen() - segment.ID(capacity) + 1,
				wantMin - segment.ID(rng.Intn(200)), wantMin + segment.ID(rng.Intn(2*capacity+1)), b.MaxSeen() + 1}
			for _, anchor := range anchors {
				snap = b.SnapshotInto(snap, anchor)
				if anchor < 0 {
					anchor = 0
				}
				want := bitfield.New(capacity)
				for _, h := range held {
					if off := int(h - anchor); off >= 0 && off < capacity {
						want.Set(off)
					}
				}
				if snap.Anchor != anchor {
					t.Fatalf("cap %d step %d: SnapshotInto anchor %d, want %d", capacity, step, snap.Anchor, anchor)
				}
				for k := 0; k < capacity; k++ {
					if snap.Bits.Get(k) != want.Get(k) {
						t.Fatalf("cap %d step %d anchor %d: map bit %d = %v, ring scan says %v",
							capacity, step, anchor, k, snap.Bits.Get(k), want.Get(k))
					}
				}
			}
		}
		if rebases == 0 {
			t.Fatalf("cap %d: no downward rebase happened", capacity)
		}
	}
}

func TestQuickSnapshotAgreesWithHas(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := New(64)
		base := segment.ID(rng.Intn(100))
		for i := 0; i < int(n); i++ {
			b.Insert(base + segment.ID(rng.Intn(64)))
		}
		m := b.Snapshot()
		for id := base - 5; id < base+70; id++ {
			if id.Valid() && m.Has(id) != b.Has(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	buf := New(600)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Insert(segment.ID(i))
	}
}

func BenchmarkHas(b *testing.B) {
	buf := New(600)
	for i := 0; i < 600; i++ {
		buf.Insert(segment.ID(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Has(segment.ID(i % 900))
	}
}

func BenchmarkPositionFromTail(b *testing.B) {
	buf := New(600)
	for i := 0; i < 600; i++ {
		buf.Insert(segment.ID(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.PositionFromTail(segment.ID(i % 600))
	}
}

// availHolder is what AvailWords must agree with Has on.
type availHolder interface {
	Has(id segment.ID) bool
	AvailWords(w0 int, dst []uint64)
}

// checkAvailWords compares every bit of the window [w0, w0+nw) with Has.
func checkAvailWords(t *testing.T, label string, h availHolder, w0, nw int) {
	t.Helper()
	dst := make([]uint64, nw)
	for i := range dst {
		dst[i] = 0xdeadbeefdeadbeef // AvailWords must overwrite, not OR into, dst
	}
	h.AvailWords(w0, dst)
	for i, w := range dst {
		for k := 0; k < 64; k++ {
			id := segment.ID((w0+i)*64 + k)
			if got, want := w&(1<<uint(k)) != 0, h.Has(id); got != want {
				t.Fatalf("%s: AvailWords(%d, %d words) says %v for id %d, Has says %v", label, w0, nw, got, id, want)
			}
		}
	}
}

// TestBufferAvailWordsMatchesHas drives random insert/evict histories —
// ids out of order, far jumps upward (bitmap growth) and inserts below the
// base (downward rebase) — and after every few steps reads windows lying
// before, after, inside and across the held range.
func TestBufferAvailWordsMatchesHas(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := []int{1, 7, 64, 100, 600}[rng.Intn(5)]
		b := New(capacity)
		next := segment.ID(rng.Intn(5000))
		for step := 0; step < 1500; step++ {
			switch r := rng.Intn(100); {
			case r < 70: // the stream advances, with holes filled out of order
				next += segment.ID(rng.Intn(4))
				b.Insert(next - segment.ID(rng.Intn(capacity+1)))
			case r < 90: // a far jump upward: the bitmap must grow
				next += segment.ID(rng.Intn(700))
				b.Insert(next)
			default: // below everything held so far: the rebase path
				if lo := b.MinID(); lo > 0 {
					b.Insert(segment.ID(rng.Intn(int(lo))))
				}
			}
			if step%10 != 0 {
				continue
			}
			lo, hi := int(b.MinID())>>6, int(b.MaxSeen())>>6
			for _, w0 := range []int{-3, 0, lo - 5, lo - 1, lo, (lo + hi) / 2, hi, hi + 1, hi + 9} {
				checkAvailWords(t, "buffer", b, w0, 1+rng.Intn(12))
			}
			checkAvailWords(t, "buffer", b, lo-2, hi-lo+5) // the whole range and both sides
		}
	}
}

// TestMapAvailWordsMatchesHas snapshots random buffers at anchors that are
// not word-aligned and reads windows partly and wholly outside the map.
func TestMapAvailWordsMatchesHas(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		capacity := []int{1, 63, 64, 65, 600}[rng.Intn(5)]
		b := New(capacity)
		base := segment.ID(rng.Intn(3000))
		for i := 0; i < capacity; i++ {
			b.Insert(base + segment.ID(rng.Intn(capacity+20)))
		}
		anchor := base + segment.ID(rng.Intn(30)) - 10
		m := b.SnapshotFrom(anchor)
		lo, hi := int(m.Anchor)>>6, (int(m.Anchor)+capacity)>>6
		for _, w0 := range []int{-2, lo - 3, lo - 1, lo, (lo + hi) / 2, hi, hi + 1, hi + 4} {
			checkAvailWords(t, "map", m, w0, 1+rng.Intn(12))
		}
		checkAvailWords(t, "map", m, lo-2, hi-lo+5)
	}
}

// TestMapPositionFromTailMatchesScan pins the popcount rank behind
// Map.PositionFromTail against the NextSet walk it replaced, for every id
// of the window (both edges included) and the ids just outside it.
func TestMapPositionFromTailMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		capacity := []int{1, 64, 65, 600}[rng.Intn(4)]
		b := New(capacity)
		base := segment.ID(rng.Intn(3000))
		for i := 0; i < capacity; i++ {
			b.Insert(base + segment.ID(rng.Intn(capacity)))
		}
		b.Insert(base)                            // the low edge of the window
		b.Insert(base + segment.ID(capacity) - 1) // and the high one
		m := b.SnapshotFrom(base)
		for id := base - 2; id <= base+segment.ID(capacity)+2; id++ {
			want := 0
			if m.Has(id) {
				want = 1
				for i := m.Bits.NextSet(int(id-m.Anchor) + 1); i >= 0; i = m.Bits.NextSet(i + 1) {
					want++
				}
			}
			if got := m.PositionFromTail(id); got != want {
				t.Fatalf("capacity %d anchor %d: PositionFromTail(%d) = %d, scan gives %d", capacity, m.Anchor, id, got, want)
			}
		}
	}
}
