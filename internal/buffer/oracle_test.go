package buffer

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"gossipstream/internal/segment"
)

// refFIFO is the reference the compact buffer is checked against: a
// slice kept oldest first plus a set of the held ids, with every query
// answered by a scan.
type refFIFO struct {
	capacity int
	fifo     []segment.ID
	held     map[segment.ID]bool
}

func newRefFIFO(capacity int) *refFIFO {
	return &refFIFO{capacity: capacity, held: map[segment.ID]bool{}}
}

func (r *refFIFO) insert(id segment.ID) (evicted segment.ID, ok bool) {
	if r.held[id] {
		return segment.None, false
	}
	evicted = segment.None
	if len(r.fifo) == r.capacity {
		evicted, r.fifo = r.fifo[0], r.fifo[1:]
		delete(r.held, evicted)
	}
	r.fifo = append(r.fifo, id)
	r.held[id] = true
	return evicted, true
}

// check compares every query of b with the reference: Len, Oldest,
// Newest, MinID, Has and PositionFromTail of every held id and of the ids
// next to them, AvailWords over the words around the held range and
// around probe, and SnapshotInto at the anchors a node advertises from
// (MinID, the freshest window MaxSeen-B+1) and at probe.
func (r *refFIFO) check(b *Buffer, probe segment.ID) error {
	if b.Len() != len(r.fifo) {
		return fmt.Errorf("Len = %d, reference holds %d", b.Len(), len(r.fifo))
	}
	wantOld, wantNew, wantMin := segment.None, segment.None, segment.None
	if len(r.fifo) > 0 {
		wantOld, wantNew, wantMin = r.fifo[0], r.fifo[len(r.fifo)-1], slices.Min(r.fifo)
	}
	if b.Oldest() != wantOld || b.Newest() != wantNew || b.MinID() != wantMin {
		return fmt.Errorf("Oldest/Newest/MinID = %d/%d/%d, reference %d/%d/%d",
			b.Oldest(), b.Newest(), b.MinID(), wantOld, wantNew, wantMin)
	}
	for i, id := range r.fifo {
		if got, want := b.PositionFromTail(id), len(r.fifo)-i; got != want {
			return fmt.Errorf("PositionFromTail(%d) = %d, reference %d", id, got, want)
		}
		for _, near := range []segment.ID{id - 1, id + 1} {
			if near.Valid() && b.Has(near) != r.held[near] {
				return fmt.Errorf("Has(%d) = %v, reference %v", near, b.Has(near), r.held[near])
			}
		}
	}
	if probe.Valid() && (b.Has(probe) != r.held[probe] || (b.PositionFromTail(probe) == 0) == r.held[probe]) {
		return fmt.Errorf("Has/PositionFromTail(%d) = %v/%d, reference holds it: %v",
			probe, b.Has(probe), b.PositionFromTail(probe), r.held[probe])
	}

	words := map[int]uint64{} // the reference's Has bits, by absolute word
	for _, id := range r.fifo {
		words[int(id>>6)] |= 1 << uint(id&63)
	}
	var windows [][2]int // {w0, words}
	for _, id := range []segment.ID{wantMin, wantNew, probe, b.MaxSeen()} {
		if id.Valid() {
			windows = append(windows, [2]int{int(id>>6) - 2, 5})
		}
	}
	if len(r.fifo) > 0 {
		// The whole held range and a word on each side.
		lo, hi := int(wantMin>>6), int(slices.Max(r.fifo)>>6)
		windows = append(windows, [2]int{lo - 1, hi - lo + 3})
	}
	for _, win := range windows {
		dst := make([]uint64, win[1])
		for i := range dst {
			dst[i] = 0xdeadbeefdeadbeef // AvailWords must overwrite
		}
		b.AvailWords(win[0], dst)
		for i, got := range dst {
			w := win[0] + i
			if want := words[w]; got != want {
				return fmt.Errorf("AvailWords word %d = %#x, reference %#x", w, got, want)
			}
		}
	}

	snap := b.Snapshot()
	for _, anchor := range []segment.ID{wantMin, b.MaxSeen() - segment.ID(r.capacity) + 1, probe} {
		snap = b.SnapshotInto(snap, anchor)
		anchor = max(anchor, 0)
		if snap.Anchor != anchor {
			return fmt.Errorf("SnapshotInto anchor %d, want %d", snap.Anchor, anchor)
		}
		for k := 0; k < r.capacity; k++ {
			if got, want := snap.Bits.Get(k), r.held[anchor+segment.ID(k)]; got != want {
				return fmt.Errorf("SnapshotInto(anchor %d) bit %d = %v, reference %v", anchor, k, got, want)
			}
		}
	}
	return nil
}

// insertBoth inserts id into the buffer and the reference and compares
// the results and then every query.
func insertBoth(b *Buffer, ref *refFIFO, id segment.ID) error {
	wantEv, wantOK := ref.insert(id)
	if ev, ok := b.Insert(id); ev != wantEv || ok != wantOK {
		return fmt.Errorf("Insert(%d) = (%d, %v), reference (%d, %v)", id, ev, ok, wantEv, wantOK)
	}
	if err := ref.check(b, id); err != nil {
		return fmt.Errorf("after Insert(%d): %w", id, err)
	}
	return nil
}

// retained is the bytes b's ring, index and availability words hold.
func retained(b *Buffer) int {
	return cap(b.ring)*int(unsafe.Sizeof(b.ring[0])) +
		cap(b.slots)*int(unsafe.Sizeof(b.slots[0])) +
		cap(b.avail)*int(unsafe.Sizeof(b.avail[0]))
}

// TestBufferIndexBounded pins the footprint of a long stream: a B=600
// buffer fed ids 0..99 999 keeps an index over its held window plus
// headroom, not over every id it has seen, and still answers for the
// window it holds.
func TestBufferIndexBounded(t *testing.T) {
	const ids = 100_000
	b := New(600)
	for id := segment.ID(0); id < ids; id++ {
		b.Insert(id)
	}
	if got := retained(b); got > 8<<10 {
		t.Errorf("ring, index and availability words retain %d B after %d ids, want at most 8 KB "+
			"(%d ring entries, %d index entries, %d words)", got, ids, cap(b.ring), cap(b.slots), cap(b.avail))
	}
	for id := segment.ID(ids - 600); id < ids; id++ {
		if got, want := b.PositionFromTail(id), int(ids-id); got != want {
			t.Fatalf("PositionFromTail(%d) = %d, want %d", id, got, want)
		}
	}
	if b.Has(ids-601) || b.MinID() != ids-600 {
		t.Fatalf("Has(%d) = %v, MinID = %d: the evicted tail is still indexed", ids-601, b.Has(ids-601), b.MinID())
	}
}

// TestBufferBoundsPanic pins the limits of the compact representation:
// a 16-bit index entry caps the capacity at 65 535, a 32-bit ring entry
// caps ids below 2^32, and both edges are accepted.
func TestBufferBoundsPanic(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("New(0)", func() { New(0) })
	mustPanic("New(65536)", func() { New(65536) })
	mustPanic("Insert(1<<32)", func() { New(4).Insert(1 << 32) })
	mustPanic("Insert(None)", func() { New(4).Insert(segment.None) })

	b := New(math.MaxUint16)
	for id := segment.ID(0); id <= math.MaxUint16; id++ {
		b.Insert(id) // the last insert evicts id 0 and reuses its slot
	}
	if b.Has(0) || b.PositionFromTail(1) != math.MaxUint16 || b.PositionFromTail(math.MaxUint16) != 1 {
		t.Fatalf("capacity %d: Has(0) = %v, positions of 1 and %d = %d, %d",
			math.MaxUint16, b.Has(0), math.MaxUint16, b.PositionFromTail(1), b.PositionFromTail(math.MaxUint16))
	}
	top := segment.ID(math.MaxUint32)
	b = New(4)
	if _, ok := b.Insert(top); !ok || !b.Has(top) || b.Newest() != top || b.MinID() != top {
		t.Fatalf("Insert(2^32-1): ok=%v Has=%v Newest=%d MinID=%d", ok, b.Has(top), b.Newest(), b.MinID())
	}
}

// TestWideHeldSpanMatchesReference holds a span far wider than the
// 16-bit index entries could address: an ex-listener promoted to source
// keeps its old playback tail while it generates at a live edge 100 000
// ids above it. Every query must match the reference while the span is
// held and while the new segments evict the tail.
func TestWideHeldSpanMatchesReference(t *testing.T) {
	const capacity, edge = 600, 100_000
	b, ref := New(capacity), newRefFIFO(capacity)
	var ids []segment.ID
	for id := segment.ID(0); id < 300; id++ {
		ids = append(ids, id) // the old tail
	}
	for id := segment.ID(edge); id < edge+2*capacity; id++ {
		ids = append(ids, id) // the live edge, evicting the tail
	}
	widest := segment.ID(0)
	for i, id := range ids {
		if err := insertBoth(b, ref, id); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		widest = max(widest, b.MaxSeen()-b.MinID())
	}
	if widest <= math.MaxUint16 {
		t.Fatalf("the held span reached only %d ids", widest)
	}
}

// FuzzBufferOps drives random insert sequences through a buffer and the
// reference FIFO and compares every query after each insert. Each op is
// two bytes: the high three bits of the first pick a move, the rest of
// the pair its size. All ids stay in a 2^18-wide window whose low end is
// drawn from lo, clamped so the window may touch 2^32-1 but not pass it:
// the index spans the held ids, so the window bounds its memory.
func FuzzBufferOps(f *testing.F) {
	f.Add(uint16(599), uint32(0), []byte{0x00, 1, 0x00, 2, 0x20, 5, 0x00, 1})
	f.Add(uint16(63), uint32(5000), []byte{0x40, 200, 0x40, 9, 0x40, 30, 0x00, 0, 0x00, 0, 0x20, 100})
	f.Add(uint16(600), uint32(1<<20), []byte{0x60, 255, 0x00, 3, 0x80, 0, 0x00, 4, 0x60, 255, 0xa0, 7})
	f.Add(uint16(7), uint32(math.MaxUint32), []byte{0x00, 1, 0xc0, 0, 0xc0, 3, 0x40, 9, 0xe0, 1})
	// A slide then a jump past the slid words: they must read zero.
	f.Add(uint16(63), uint32(5000), []byte{0x41, 0x43, 0x40, 0x09, 0x41, 0x80, 0x30, 0x30})
	f.Add(uint16(1), uint32(123), []byte{0x00, 0, 0x00, 0, 0xe0, 0, 0x20, 0, 0x60, 1})
	f.Fuzz(func(t *testing.T, capRaw uint16, lo uint32, ops []byte) {
		const window = 1 << 18
		capacity := 1 + int(capRaw)%1024
		low := segment.ID(min(uint64(lo), math.MaxUint32-window+1))
		high := low + window - 1
		clamp := func(id segment.ID) segment.ID { return min(max(id, low), high) }
		b, ref := New(capacity), newRefFIFO(capacity)
		next := low + segment.ID(window/2) // the live edge
		joiner := next                     // the lowest id a downward fill reached
		for i := 0; i+1 < len(ops) && i < 400; i += 2 {
			arg := segment.ID(ops[i]&0x1f)<<8 | segment.ID(ops[i+1])
			var id segment.ID
			switch ops[i] >> 5 {
			case 0, 1: // the stream advances
				next = clamp(next + 1 + arg%4)
				id = next
			case 2: // a hole filled late, or a duplicate
				id = clamp(next - arg%segment.ID(2*capacity+2))
			case 3: // a joiner fills its window from the live edge down
				joiner = clamp(joiner - 1 - arg%3)
				id = joiner
			case 4: // a wide jump upward
				next = clamp(next + arg*16)
				id = next
			case 5: // far below everything: a downward rebase
				id = clamp(next - arg*16)
			case 6: // the top of the window (2^32-1 when lo is near it)
				id = high - arg%4
			default: // the newest id again
				id = clamp(next)
			}
			if err := insertBoth(b, ref, id); err != nil {
				t.Fatalf("capacity %d, op %d: %v", capacity, i/2, err)
			}
		}
	})
}
