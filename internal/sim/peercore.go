package sim

import (
	"math/bits"

	"gossipstream/internal/buffer"
	"gossipstream/internal/segment"
)

// This file is the per-node protocol core: the playback/session state
// machine and the need-window computation every gossipstream peer runs
// once per scheduling period, extracted from the simulator's phases so
// that a second execution backend can drive the same protocol step. Two
// consumers exist today:
//
//   - the simulator's playback and plan phases (phase_world.go,
//     phase_plan.go) call these methods on the nodeState's embedded
//     Playback, exactly as the monolithic phases used to inline them —
//     the extraction is behavior-preserving bit for bit;
//
//   - the live runtime (internal/runtime) drives one Playback per peer
//     goroutine on the wall clock, with the same sessions/needs/advance
//     semantics but buffer maps decoded from real transport frames.
//
// Everything here is pure node-local state: no Sim, no RNG, no engine.
// The measurement hooks (finish-S1 / prepare-S2 / start-S2 ticks) stay
// with the caller — Advance reports which sessions started and finished
// so each backend can do its own window accounting.

// Playback is one peer's playback and session-discovery state machine
// over the serial session timeline. The zero value is NOT ready to use;
// a fresh peer starts with Known=1 (it knows the first session) and
// Anchor at its playback entry point.
type Playback struct {
	// SessionIdx indexes the timeline session being played or awaited.
	SessionIdx int
	// Known is the number of timeline sessions the peer has discovered
	// (a neighbor advertising a segment at or past a session's begin
	// reveals that session).
	Known int
	// Active reports whether playback is currently consuming segments.
	Active bool
	// Playhead is the next segment playback will consume.
	Playhead segment.ID
	// Anchor is the first segment of the peer's playback: joiners adopt
	// a late anchor ("follow its neighbors' current steps", Section 5.4).
	Anchor segment.ID
}

// NewPlayback returns the state of a peer entering the stream at anchor,
// playing the session with the given timeline index, having discovered
// known sessions.
func NewPlayback(anchor segment.ID, sessionIdx, known int) Playback {
	return Playback{SessionIdx: sessionIdx, Known: known, Playhead: anchor, Anchor: anchor}
}

// WindowLo is the lowest segment id the peer still cares about: its
// playhead once playing (or once parked past a finished session), its
// playback anchor before that. It is the lower edge of the request
// window and the reference point q0/Q1 measurements count from.
func (pb *Playback) WindowLo() segment.ID {
	if pb.Active {
		return pb.Playhead
	}
	if pb.Playhead > pb.Anchor {
		// Between sessions: playhead parked past the previous session.
		return pb.Playhead
	}
	return pb.Anchor
}

// Discover advances the known-session count past every session whose
// begin the advertised high-water mark has reached — the paper's
// synchronization mechanism: the new source embeds the previous stream's
// ending id in its first segments, so seeing any S2 segment reveals the
// session boundary. It also clamps SessionIdx into the timeline (a
// defensive bound; the index only runs past the end transiently while a
// successor session is being appended).
func (pb *Playback) Discover(sessions []segment.Session, maxAdvert segment.ID) {
	for pb.Known < len(sessions) && maxAdvert >= sessions[pb.Known].Begin {
		pb.Known++
	}
	if pb.SessionIdx >= len(sessions) {
		pb.SessionIdx = len(sessions) - 1
	}
}

// NeedWindows computes the peer's two undelivered request windows for
// the period: the current stream's window — [WindowLo, maxAdvert],
// clipped to the session end and to one buffer capacity — and, once the
// successor session is discovered, the first qs segments of the new
// stream. Segments already held and segments in the granted in-flight
// set are excluded. Results are appended to needOld/needNew (reset to
// length zero first) and returned, so callers can reuse backing arrays
// across periods.
func (pb *Playback) NeedWindows(buf *buffer.Buffer, sessions []segment.Session, maxAdvert segment.ID, bufferCap, qs int, granted []segment.ID, needOld, needNew []segment.ID) ([]segment.ID, []segment.ID) {
	dst, split := pb.NeedWindowsInto(buf, sessions, maxAdvert, bufferCap, qs, granted, needOld[:0])
	needNew = append(needNew[:0], dst[split:]...)
	return dst[:split:split], needNew
}

// NeedWindowsInto is the arena form of NeedWindows: both windows are
// appended to dst — the old-stream window first — and the returned split
// index separates them (needOld = dst[base:split], needNew = dst[split:],
// where base is len(dst) at the call). The simulator points many nodes'
// windows into one per-shard arena this way, paying append growth once
// per shard instead of once per node.
func (pb *Playback) NeedWindowsInto(buf *buffer.Buffer, sessions []segment.Session, maxAdvert segment.ID, bufferCap, qs int, granted, dst []segment.ID) ([]segment.ID, int) {
	cur := sessions[pb.SessionIdx]

	lo := pb.WindowLo()
	hi := maxAdvert
	if !cur.Open() && hi > cur.End {
		hi = cur.End
	}
	if winHi := lo + segment.ID(bufferCap) - 1; hi > winHi {
		hi = winHi
	}
	if hi >= lo {
		dst = appendMissing(dst, buf, granted, lo, hi)
	}

	split := len(dst)
	if next := pb.SessionIdx + 1; next < pb.Known {
		ns := sessions[next]
		nhi := ns.Begin + segment.ID(qs) - 1
		if !ns.Open() && nhi > ns.End {
			nhi = ns.End
		}
		dst = appendMissing(dst, buf, granted, ns.Begin, nhi)
	}
	return dst, split
}

// appendMissing appends the ids in [lo, hi] absent from the buffer and
// not in the granted in-flight set to dst, ascending. It walks the
// complement of the buffer's own availability words, a few words at a
// time, after marking the in-flight ids as held — the granted set holds at
// most Inbound·τ entries per period (and is empty at round 0 of classic
// runs), so one pass over it per chunk beats a membership test per id.
func appendMissing(dst []segment.ID, buf *buffer.Buffer, granted []segment.ID, lo, hi segment.ID) []segment.ID {
	var chunk [8]uint64
	for w0, wEnd := int(lo>>6), int(hi>>6); w0 <= wEnd; w0 += len(chunk) {
		held := chunk[:min(len(chunk), wEnd-w0+1)]
		buf.AvailWords(w0, held)
		first := segment.ID(w0) << 6
		for _, g := range granted {
			if off := int(g - first); off >= 0 && off < len(held)<<6 {
				held[off>>6] |= 1 << uint(off&63)
			}
		}
		for i, w := range held {
			base := first + segment.ID(i)<<6
			missing := ^w
			if lo > base {
				missing &= ^uint64(0) << uint(lo-base)
			}
			if hi-base < 63 {
				missing &= ^uint64(0) >> uint(63-(hi-base))
			}
			for ; missing != 0; missing &= missing - 1 {
				dst = append(dst, base+segment.ID(bits.TrailingZeros64(missing)))
			}
		}
	}
	return dst
}

// PlaybackStep reports what one Advance did, so the caller can do its
// own measurement accounting (the simulator stamps finish-S1 /
// prepare-S2 / start-S2 ticks; the live runtime reports the same events
// to its collector).
type PlaybackStep struct {
	// Played counts segments consumed this period; Stalled counts
	// playback slots lost to a hole at the playhead while mid-stream.
	Played, Stalled int
	// Started is the timeline index of the session whose playback
	// started this period, -1 otherwise.
	Started int
	// Finished is the timeline index of the session played to its end
	// this period, -1 otherwise.
	Finished int
}

// Advance runs one scheduling period of the playback state machine:
// start (the Q-consecutive rule, or the first-qs rule when entering a
// successor session at its beginning), consume up to perTick segments,
// stall on a hole, and transition to the next session when the current
// one is played out. q and qs are the paper's startup thresholds,
// perTick is p·τ.
func (pb *Playback) Advance(buf *buffer.Buffer, sessions []segment.Session, q, qs, perTick int) PlaybackStep {
	st := PlaybackStep{Started: -1, Finished: -1}
	if pb.SessionIdx >= len(sessions) {
		return st // finished every session that exists
	}
	cur := sessions[pb.SessionIdx]
	if !pb.Active {
		if !pb.tryStart(buf, cur, q, qs) {
			return st
		}
		st.Started = pb.SessionIdx
	}
	for consumed := 0; consumed < perTick; consumed++ {
		if !cur.Open() && pb.Playhead > cur.End {
			break
		}
		if !buf.Has(pb.Playhead) {
			// Stall: hole at the playhead. The remaining playback slots
			// of this period are lost (continuity accounting).
			st.Stalled = perTick - consumed
			return st
		}
		pb.Playhead++
		st.Played++
	}
	if !cur.Open() && pb.Playhead > cur.End {
		st.Finished = pb.SessionIdx
		pb.Active = false
		pb.SessionIdx++
		pb.Anchor = cur.End + 1
		pb.Playhead = pb.Anchor
	}
	return st
}

// tryStart checks the stream start conditions: Q consecutive segments
// from the playback anchor for a peer entering a stream mid-way or at
// its beginning; the first qs segments for a peer starting a successor
// session at its beginning (completed playback of the previous stream
// is implied by SessionIdx having advanced).
func (pb *Playback) tryStart(buf *buffer.Buffer, cur segment.Session, q, qs int) bool {
	if pb.SessionIdx > 0 && pb.Anchor == cur.Begin {
		// Starting a successor session: need its first qs segments.
		need := qs
		if !cur.Open() && cur.Len() < need {
			need = cur.Len()
		}
		if buf.ConsecutiveFrom(cur.Begin) < need {
			return false
		}
	} else if buf.ConsecutiveFrom(pb.Anchor) < q {
		return false
	}
	pb.Active = true
	pb.Playhead = pb.Anchor
	return true
}

// Prepared reports whether the peer holds the entire startup window of a
// session beginning at begin — the paper's prepare-S2 condition (all of
// the first qs segments delivered). Undelivered-count zero over the
// window is equivalent to qs consecutive from its begin.
func Prepared(buf *buffer.Buffer, begin segment.ID, qs int) bool {
	return buf.ConsecutiveFrom(begin) >= qs
}
