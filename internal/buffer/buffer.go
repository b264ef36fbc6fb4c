// Package buffer implements the per-node segment buffer of the paper:
// capacity B segments, FIFO replacement, and position-from-tail queries.
//
// The FIFO discipline and the "position is the distance from the tail"
// convention come from Table 2 of the paper: new segments enter at the
// tail, the oldest segment is evicted from the head, and a segment's
// position p_ij grows from 1 (just inserted) to B (next to be evicted).
// Rarity (eq. 8) multiplies p_ij/B across suppliers, i.e. it treats the
// normalized position as the probability that the segment is about to be
// replaced in that supplier's buffer.
//
// Segment ids in a streaming session are dense integers starting near 0,
// so membership is indexed by a flat slice over the ids rather than a
// hash map: simulations hold one buffer per node for up to 10^4 nodes, and
// the flat index keeps Has/PositionFromTail at a few nanoseconds with no
// GC pressure. The index spans the held window plus O(B) headroom, not
// the whole stream: it slides up behind the smallest held id as the
// stream advances. Per node that is a 4-byte ring entry per slot and a
// 2-byte index entry per id of the window, which bounds ids to below 2^32
// (a day of the paper's 10 segments/s is 864 000) and the capacity to at
// most 65 535 slots.
package buffer

import (
	"fmt"
	"math"
	"math/bits"

	"gossipstream/internal/bitfield"
	"gossipstream/internal/segment"
)

// Buffer is a fixed-capacity FIFO segment store. It is not safe for
// concurrent use; each simulated node owns exactly one.
type Buffer struct {
	capacity int
	ring     []uint32 // ring buffer of ids, oldest at head
	head     int
	size     int

	// Dense index over the held ids: slots[id-base] = ring position + 1,
	// zero meaning absent. base moves down on an insert below it (a
	// geometric rebase) and slides up behind MinID when a rising id would
	// outgrow the slice's capacity (slideUp).
	base  segment.ID
	slots []uint16

	// avail mirrors slots as one bit per id, aligned on absolute id words
	// so that every holder's words line up: bit id&63 of avail[id>>6 -
	// base>>6] is set exactly when slots holds the id. It follows base
	// both ways and grows upward by doubling.
	avail []uint64

	maxSeen segment.ID // high-water mark of inserted ids (never decreases)
}

// maxCap is the largest capacity New accepts: an index entry is a
// 16-bit ring position + 1.
const maxCap = math.MaxUint16

// New returns an empty buffer with the given capacity (the paper's B=600).
// It panics unless 0 < capacity <= maxCap.
func New(capacity int) *Buffer {
	if capacity <= 0 || capacity > maxCap {
		panic(fmt.Sprintf("buffer: capacity %d must be in [1, %d]", capacity, maxCap))
	}
	return &Buffer{
		capacity: capacity,
		ring:     make([]uint32, capacity),
		// Pre-size the dense index to one capacity's worth of ids: the
		// warm-up stream fits without a single setSlot growth, and longer
		// streams grow it once or twice before it starts to slide.
		slots: make([]uint16, 0, capacity),
		// One capacity's worth of ids straddles at most capacity/64+2 words.
		avail:   make([]uint64, 0, capacity/64+2),
		base:    -1,
		maxSeen: segment.None,
	}
}

// Cap returns the buffer capacity B.
func (b *Buffer) Cap() int { return b.capacity }

// Len returns the number of segments currently held.
func (b *Buffer) Len() int { return b.size }

// MaxSeen returns the largest id ever inserted (segment.None when
// nothing was); it bounds every held id from above.
func (b *Buffer) MaxSeen() segment.ID { return b.maxSeen }

func (b *Buffer) slotOf(id segment.ID) uint16 {
	if b.base < 0 || id < b.base {
		return 0
	}
	off := int(id - b.base)
	if off >= len(b.slots) {
		return 0
	}
	return b.slots[off]
}

func (b *Buffer) setSlot(id segment.ID, v uint16) {
	if b.base < 0 {
		b.base = id
	}
	if id < b.base {
		// Rebase downward: prepend space. A joiner fills its window from
		// the live edge down, so the new base goes len(slots) ids below
		// id (at least doubling the index, O(log n) rebases for a run of
		// ever-lower ids), and the upward headroom is kept, so the next
		// rising id does not reallocate either.
		base := max(0, id-segment.ID(len(b.slots)))
		shift := int(b.base - base)
		grown := make([]uint16, shift+len(b.slots), shift+cap(b.slots))
		copy(grown[shift:], b.slots)
		b.slots = grown
		if wshift := int(b.base>>6 - base>>6); wshift > 0 {
			words := make([]uint64, wshift+len(b.avail), wshift+cap(b.avail))
			copy(words[wshift:], b.avail)
			b.avail = words
		}
		b.base = base
	}
	off := int(id - b.base)
	if off >= cap(b.slots) {
		b.slideUp(id)
		off = int(id - b.base)
	}
	for off >= len(b.slots) {
		// One slot at a time, not append of a make: a race build does not
		// fuse that into one allocation.
		b.slots = append(b.slots, 0)
	}
	b.slots[off] = v

	w := int(id>>6 - b.base>>6)
	if w >= len(b.avail) {
		if w >= cap(b.avail) {
			words := make([]uint64, len(b.avail), max(2*cap(b.avail), w+1))
			copy(words, b.avail)
			b.avail = words
		}
		// Words past len were never written (or were allocated zeroed).
		b.avail = b.avail[:w+1]
	}
	if v != 0 {
		b.avail[w] |= 1 << uint(id&63)
	} else {
		b.avail[w] &^= 1 << uint(id&63)
	}
}

// slideUp moves the index's base up to the word holding MinID (id's own
// word when nothing is held), before a rising id would grow the index
// past its capacity. It only slides when that frees a quarter of the
// index: a held span near the index's length grows it instead, so the
// copies stay amortized O(1) per insert and the index stays within a
// small multiple of the held span. Evictions have already cleared the
// ids below MinID, so the dropped prefix is all zero.
func (b *Buffer) slideUp(id segment.ID) {
	lo := b.MinID()
	if lo == segment.None {
		lo = id
	}
	base := lo &^ 63
	shift := int(base - b.base)
	if shift <= 0 || shift < len(b.slots)/4 {
		return
	}
	// setSlot zeroes the slots it appends, but reslices avail over
	// whatever lies past its length: the vacated words must read zero.
	b.slots = b.slots[:copy(b.slots, b.slots[min(shift, len(b.slots)):])]
	wshift := min(int(base>>6-b.base>>6), len(b.avail))
	n := copy(b.avail, b.avail[wshift:])
	clear(b.avail[n:])
	b.avail = b.avail[:n]
	b.base = base
}

// AvailWords fills dst with the Has bits of the absolute ids
// [w0*64, (w0+len(dst))*64): bit k of dst[i] is Has((w0+i)*64 + k). Words
// outside the held range read as zero. It is the bulk form of Has the
// planner scans availability with (core.View).
func (b *Buffer) AvailWords(w0 int, dst []uint64) {
	clear(dst)
	src, at := b.avail, int(b.base>>6)-w0 // avail[0] lands at dst[at]
	if at < 0 {
		if -at >= len(src) {
			return
		}
		src, at = src[-at:], 0
	}
	if at < len(dst) {
		copy(dst[at:], src)
	}
}

// Has reports whether the segment is in the buffer.
func (b *Buffer) Has(id segment.ID) bool {
	return id.Valid() && b.slotOf(id) != 0
}

// Insert adds a segment at the tail. If the buffer is full the oldest
// segment is evicted and returned; otherwise evicted is segment.None.
// Inserting a segment that is already present is a no-op (ok=false).
func (b *Buffer) Insert(id segment.ID) (evicted segment.ID, ok bool) {
	evicted = segment.None
	if !id.Valid() || id > math.MaxUint32 {
		panic(fmt.Sprintf("buffer: Insert of segment id %d outside [0, 2^32)", id))
	}
	if b.Has(id) {
		return evicted, false
	}
	if b.size == b.capacity {
		evicted = segment.ID(b.ring[b.head])
		b.setSlot(evicted, 0)
		b.head = b.wrap(b.head + 1)
		b.size--
	}
	slot := b.wrap(b.head + b.size)
	b.ring[slot] = uint32(id)
	b.setSlot(id, uint16(slot)+1)
	b.size++
	if id > b.maxSeen {
		b.maxSeen = id
	}
	return evicted, true
}

// PositionFromTail returns a segment's FIFO position counted from the
// tail: 1 for the most recently inserted segment, Len() for the next
// segment to be evicted. It returns 0 when the segment is absent.
func (b *Buffer) PositionFromTail(id segment.ID) int {
	s := int(b.slotOf(id))
	if s == 0 {
		return 0
	}
	logical := b.wrap(s - 1 - b.head + b.capacity) // 0 = oldest
	return b.size - logical
}

// wrap maps a ring index in [0, 2·capacity) into the ring. Every index
// the buffer computes is a sum of head and an offset below capacity, so
// one conditional subtraction replaces the integer division of a %.
func (b *Buffer) wrap(i int) int {
	if i >= b.capacity {
		i -= b.capacity
	}
	return i
}

// Oldest returns the segment at the FIFO head (next eviction victim), or
// segment.None when empty.
func (b *Buffer) Oldest() segment.ID {
	if b.size == 0 {
		return segment.None
	}
	return segment.ID(b.ring[b.head])
}

// Newest returns the most recently inserted segment, or segment.None.
func (b *Buffer) Newest() segment.ID {
	if b.size == 0 {
		return segment.None
	}
	return segment.ID(b.ring[b.wrap(b.head+b.size-1)])
}

// MinID returns the smallest segment id held, or segment.None when empty.
// Pull scheduling fills holes out of order, so the FIFO head need not be
// the minimum; the availability words are in id order, and the minimum is
// their first set bit.
func (b *Buffer) MinID() segment.ID {
	for w, word := range b.avail {
		if word != 0 {
			return segment.ID((int(b.base>>6)+w)<<6 + bits.TrailingZeros64(word))
		}
	}
	return segment.None
}

// Contents returns the held ids in FIFO order (oldest first). The slice is
// freshly allocated.
func (b *Buffer) Contents() []segment.ID {
	out := make([]segment.ID, 0, b.size)
	for i := 0; i < b.size; i++ {
		out = append(out, segment.ID(b.ring[b.wrap(b.head+i)]))
	}
	return out
}

// ConsecutiveFrom returns the length of the run of consecutively held
// segments starting at id (0 when id itself is absent). The playback
// startup rules (Q consecutive for S1, the first Qs for S2) are built on
// this query.
func (b *Buffer) ConsecutiveFrom(id segment.ID) int {
	n := 0
	for b.Has(id + segment.ID(n)) {
		n++
	}
	return n
}

// Map is a snapshot of buffer availability in the paper's wire format: a
// 20-bit anchor id plus one availability bit per buffer slot, covering ids
// [Anchor, Anchor+Cap). Ids outside the window are clipped (cannot happen
// while the stream lag stays under B segments, which holds in every
// experiment of the paper).
type Map struct {
	Anchor   segment.ID
	Capacity int
	Bits     *bitfield.Set
}

// Snapshot builds the availability map the node advertises to neighbors.
// The anchor is the smallest id held; an empty buffer yields an anchor of
// 0 and an all-clear map.
func (b *Buffer) Snapshot() *Map {
	if b.size == 0 {
		return &Map{Anchor: 0, Capacity: b.capacity, Bits: bitfield.New(b.capacity)}
	}
	return b.SnapshotFrom(b.MinID())
}

// SnapshotFrom builds the availability map for the window [anchor,
// anchor+B) — holdings outside it are clipped. A node whose buffer
// spans more than B ids (an ex-listener promoted to source keeps its
// old playback tail while generating at the live edge) must anchor its
// advertisement at the freshest window, maxSeen-B+1, or the map cannot
// represent the segments it is the unique supplier of; the live runtime
// (internal/runtime) advertises exactly that window.
func (b *Buffer) SnapshotFrom(anchor segment.ID) *Map {
	m := &Map{Anchor: 0, Capacity: b.capacity, Bits: bitfield.New(b.capacity)}
	return b.SnapshotInto(m, anchor)
}

// SnapshotInto refills dst in place with the window [anchor, anchor+B) —
// the allocation-free variant of SnapshotFrom for per-period
// advertisement loops. A nil dst, or one built for a different capacity,
// falls back to a fresh snapshot; either way the filled map is returned.
func (b *Buffer) SnapshotInto(dst *Map, anchor segment.ID) *Map {
	if dst == nil || dst.Bits == nil || dst.Bits.Len() != b.capacity {
		return b.SnapshotFrom(anchor)
	}
	if anchor < 0 {
		anchor = 0
	}
	dst.Anchor = anchor
	dst.Capacity = b.capacity
	// The map's bit k is Has(anchor+k): each map word is the availability
	// words shifted to the anchor.
	for w := range (b.capacity + 63) / 64 {
		dst.Bits.SetWord64(w, b.availFrom(anchor+segment.ID(w<<6)))
	}
	return dst
}

// availFrom returns the Has bits of ids [id, id+64) as one word, bit k of
// the result being Has(id+k). id need not be word-aligned; ids outside
// the indexed range read as absent.
func (b *Buffer) availFrom(id segment.ID) uint64 {
	if len(b.avail) == 0 {
		return 0
	}
	i := int(id) - int(b.base>>6)<<6 // bit offset into avail
	if i <= -64 || i >= len(b.avail)<<6 {
		return 0
	}
	if i < 0 {
		return b.avail[0] << uint(-i)
	}
	w, sh := i>>6, uint(i&63)
	v := b.avail[w] >> sh
	if sh != 0 && w+1 < len(b.avail) {
		v |= b.avail[w+1] << (64 - sh)
	}
	return v
}

// Has reports whether the map advertises the segment.
func (m *Map) Has(id segment.ID) bool {
	off := int(id - m.Anchor)
	if off < 0 || off >= m.Bits.Len() {
		return false
	}
	return m.Bits.Get(off)
}

// AvailWords is the bulk form of Has (core.View): it shifts the
// anchor-relative bitmap into the absolute word alignment Buffer.AvailWords
// uses, so bit k of dst[i] is Has((w0+i)*64 + k) for any anchor.
func (m *Map) AvailWords(w0 int, dst []uint64) {
	off := w0*64 - int(m.Anchor)
	for i := range dst {
		dst[i] = m.Bits.Word64(off + i*64)
	}
}

// Count returns the number of advertised segments.
func (m *Map) Count() int { return m.Bits.Count() }

// Cap returns the capacity of the buffer the map describes, making *Map
// usable as a core.View.
func (m *Map) Cap() int { return m.Capacity }

// PositionFromTail estimates a segment's FIFO position from the map alone:
// the count of advertised segments with a higher id, plus one. When
// segments arrived in id order (the overwhelmingly common case in a
// streaming session) this equals the true FIFO position, which is what a
// real deployment — where only the wire map crosses the network — would
// compute for eq. (8). Returns 0 when the segment is absent.
func (m *Map) PositionFromTail(id segment.ID) int {
	if !m.Has(id) {
		return 0
	}
	return 1 + m.Bits.CountFrom(int(id-m.Anchor)+1)
}

// WireBits returns the control-traffic cost of shipping this map once:
// the canonical 620 bits for B=600 (Section 5.3).
func (m *Map) WireBits() int { return bitfield.WireBits(m.Bits.Len()) }

// Encode serializes the map to the 620-bit wire image.
func (m *Map) Encode() ([]byte, error) {
	anchor := int64(m.Anchor)
	// The 20-bit anchor wraps daily in a real deployment; simulations never
	// exceed it, but the modulo keeps Encode total.
	anchor %= bitfield.MaxAnchor + 1
	return bitfield.Encode(anchor, m.Bits)
}

// DecodeMap parses a wire image for a buffer of the given capacity.
func DecodeMap(img []byte, capacity int) (*Map, error) {
	return DecodeMapInto(nil, img, capacity)
}

// DecodeMapInto parses a wire image into dst in place — the
// allocation-free variant of DecodeMap for receivers that keep one map
// per neighbour. A nil dst, or one built for a different capacity, falls
// back to a fresh map; either way the filled map is returned. A rejected
// image leaves dst untouched.
func DecodeMapInto(dst *Map, img []byte, capacity int) (*Map, error) {
	if dst == nil || dst.Bits == nil || dst.Bits.Len() != capacity {
		dst = &Map{Bits: bitfield.New(capacity)}
	}
	anchor, err := bitfield.DecodeInto(img, dst.Bits)
	if err != nil {
		return nil, err
	}
	dst.Anchor, dst.Capacity = segment.ID(anchor), capacity
	return dst, nil
}
