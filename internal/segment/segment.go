// Package segment defines the stream data model shared by every other
// package in gossipstream: segment identifiers, source sessions, and the
// arithmetic that relates segment ids to playback time.
//
// The paper ("Fast Source Switching for Gossip-based Peer-to-Peer
// Streaming", ICPP 2008) uses a single monotonically increasing id space
// across serial sources: when the old source S1 ends at segment idend, the
// new source S2 begins at idbegin = idend+1 (Table 2). A Session describes
// one source's contiguous id range inside that space.
package segment

import (
	"errors"
	"fmt"
)

// ID identifies one data segment in the global id space. IDs start at 0
// and increase by one per generated segment. The paper budgets 20 bits for
// an id anchor in the buffer-map wire format because a source emits at most
// 10*3600*24 = 864000 segments per day (Section 5.3); we use a wider Go
// integer internally and enforce the 20-bit bound only at the wire layer.
type ID int64

// None is the sentinel for "no segment". All valid IDs are >= 0.
const None ID = -1

// Valid reports whether the id denotes a real segment.
func (id ID) Valid() bool { return id >= 0 }

// String implements fmt.Stringer.
func (id ID) String() string {
	if id == None {
		return "seg(none)"
	}
	return fmt.Sprintf("seg(%d)", int64(id))
}

// SourceID identifies a streaming source (a node acting as speaker).
type SourceID int

// Session is one source's contiguous range of the global id space.
// End == None while the source is still streaming (open session).
type Session struct {
	Source SourceID
	Begin  ID
	End    ID // inclusive; None while open
}

// Open reports whether the session is still generating segments.
func (s Session) Open() bool { return s.End == None }

// Contains reports whether id belongs to this session. Open sessions
// contain every id at or after Begin.
func (s Session) Contains(id ID) bool {
	if !id.Valid() || id < s.Begin {
		return false
	}
	return s.Open() || id <= s.End
}

// Len returns the number of segments in a closed session, or -1 while the
// session is open.
func (s Session) Len() int {
	if s.Open() {
		return -1
	}
	return int(s.End - s.Begin + 1)
}

// String implements fmt.Stringer.
func (s Session) String() string {
	if s.Open() {
		return fmt.Sprintf("session(src=%d, [%d..))", s.Source, s.Begin)
	}
	return fmt.Sprintf("session(src=%d, [%d..%d])", s.Source, s.Begin, s.End)
}

// ErrOverlap is returned by Timeline.Append when a new session would
// overlap the id range of the previous one.
var ErrOverlap = errors.New("segment: session overlaps previous session")

// ErrOpenTail is returned by Timeline.Append when the previous session has
// not been closed yet.
var ErrOpenTail = errors.New("segment: previous session still open")

// Timeline is the ordered list of serial source sessions. The paper's
// scenario is exactly a timeline of length two (S1 then S2), but the
// conference example replays many hand-offs, so the type supports any
// number of serial sessions.
type Timeline struct {
	sessions []Session
}

// NewTimeline returns a timeline with a single open session for the first
// source, beginning at id 0.
func NewTimeline(first SourceID) *Timeline {
	return &Timeline{sessions: []Session{{Source: first, Begin: 0, End: None}}}
}

// Sessions returns a copy of the session list in order.
func (t *Timeline) Sessions() []Session {
	out := make([]Session, len(t.sessions))
	copy(out, t.sessions)
	return out
}

// SessionsInto overwrites dst with the session list and returns it,
// reusing dst's backing array when it is large enough — the
// allocation-free variant for per-tick snapshots.
func (t *Timeline) SessionsInto(dst []Session) []Session {
	return append(dst[:0], t.sessions...)
}

// Len is the number of sessions.
func (t *Timeline) Len() int { return len(t.sessions) }

// Current returns the most recent session.
func (t *Timeline) Current() Session { return t.sessions[len(t.sessions)-1] }

// Close ends the current session at end (inclusive). It returns the closed
// session. Closing an already-closed timeline or moving the end before the
// session's begin is a programming error and panics: session bookkeeping is
// driven by the simulator, never by external input.
func (t *Timeline) Close(end ID) Session {
	cur := &t.sessions[len(t.sessions)-1]
	if !cur.Open() {
		panic("segment: Close on closed session")
	}
	if end < cur.Begin-1 {
		panic(fmt.Sprintf("segment: Close(%d) before session begin %d", end, cur.Begin))
	}
	cur.End = end
	return *cur
}

// Append starts a new open session for source immediately after the
// previous session's end (idbegin = idend+1, Table 2).
func (t *Timeline) Append(source SourceID) (Session, error) {
	prev := t.Current()
	if prev.Open() {
		return Session{}, ErrOpenTail
	}
	s := Session{Source: source, Begin: prev.End + 1, End: None}
	t.sessions = append(t.sessions, s)
	return s, nil
}

// SessionOf returns the session containing id and true, or a zero Session
// and false when id precedes the timeline or is invalid.
func (t *Timeline) SessionOf(id ID) (Session, bool) {
	if !id.Valid() {
		return Session{}, false
	}
	// Serial sessions are ordered by Begin; binary search is overkill for
	// the 2-3 sessions real runs use, but keeps SessionOf O(log n) for the
	// conference example's long timelines.
	lo, hi := 0, len(t.sessions)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		s := t.sessions[mid]
		switch {
		case id < s.Begin:
			hi = mid - 1
		case s.Contains(id):
			return s, true
		default:
			lo = mid + 1
		}
	}
	return Segmentless, false
}

// Segmentless is the zero Session returned on lookup misses.
var Segmentless = Session{Source: -1, Begin: None, End: None}

// Range is a half-open interval of ids [Lo, Hi). It is the currency of
// "which segments do I still need" computations.
type Range struct {
	Lo, Hi ID
}

// Empty reports whether the range contains no ids.
func (r Range) Empty() bool { return r.Hi <= r.Lo }

// Len returns the number of ids in the range.
func (r Range) Len() int {
	if r.Empty() {
		return 0
	}
	return int(r.Hi - r.Lo)
}

// Contains reports whether id lies in [Lo, Hi).
func (r Range) Contains(id ID) bool { return id >= r.Lo && id < r.Hi }

// Intersect returns the overlap of two ranges (possibly empty).
func (r Range) Intersect(o Range) Range {
	lo, hi := r.Lo, r.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	if hi < lo {
		hi = lo
	}
	return Range{Lo: lo, Hi: hi}
}

// String implements fmt.Stringer.
func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }
