package runtime

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"gossipstream/internal/overlay"
	"gossipstream/internal/segment"
)

// The binary wire format, little-endian. A datagram is 1..n frames back
// to back: every frame kind is self-delimiting (fixed length, or explicit
// counts and lengths), so no datagram header or per-frame length prefix
// exists and a single-frame datagram is exactly EncodeFrame's bytes — the
// form the cluster control link (internal/cluster) reads with the strict
// DecodeFrame. The peer transport coalesces: an Endpoint's Queue appends
// frames to one pending datagram per destination address (one per
// process, since a process's nodes share one socket) and Flush writes
// them, which a peer does once at the end of its period (its maps and
// this period's requests to the neighbours of one process share a
// datagram) and once per drained inbox burst (all answers to one
// requester's process share a datagram). The receiver hands each frame
// to the inbox its Msg.To names. A pending
// datagram is written early when the next frame would push it past
// datagramBudget; a frame the LinkPolicy delays travels alone, from its
// timer. The receiver decodes a datagram all-or-nothing.
//
// Request, deny and data frames are a fixed 29-byte header; a map frame
// adds the availability image (78 bytes for B=600) and the gossiped
// session timeline at 20 bytes per session — 147 bytes with one session
// — so it fits a 1500-byte MTU up to ~65 sessions and a loopback
// datagram up to the maxWireSessions bound, which the encoder enforces
// by truncating the newest sessions (the prefix must survive —
// receivers merge timelines by index):
//
//	kind     uint8   (bit 7 = re-request flag, FrameRequest only)
//	from     uint32
//	to       uint32
//	seg      int64   (segment.None = -1 encoded two's-complement;
//	                  FrameAck: the acked sequence number)
//	sent     int32   (sender's scheduling period; control frames: the
//	                  control sequence number)
//	arrival  float64 (shaped scenario-ms delay; 0 unshaped)
//	--- FrameMap only ---
//	maxSeen  int64
//	rate     float64 (IEEE 754 bits)
//	nsess    uint16
//	nsess ×  { source int32, begin int64, end int64 }
//	maplen   uint16
//	maplen × bytes   (buffer.Map wire image)
//	--- FrameHello / FrameEvent / FrameAck / FramePing / FramePong ---
//	ctrllen  uint16
//	ctrllen × bytes  (sealed control payload, internal/cluster)
//
// Kind 6 is retired and rejected. Addresses never travel in a frame: a
// cluster routes a node to its owner shard's socket, and only the sealed
// welcome and start payloads carry the shard address table.

const wireHeaderLen = 1 + 4 + 4 + 8 + 4 + 8

// wireReReqBit flags a FrameRequest as a loss-induced re-request in the
// kind byte's high bit — the wire-level counterpart of the simulator's
// NetReRequests accounting.
const wireReReqBit = 0x80

// maxWireSessions bounds the gossiped timeline length on the wire
// (enforced on both encode and decode): a live event passes the floor
// a handful of times, scenario validation caps switches below the node
// count, and the bound keeps a hostile datagram from allocating
// unbounded session slices while keeping every frame inside one
// loopback datagram.
const maxWireSessions = 1024

// maxWireCtrl bounds a control frame's payload (a sealed directive,
// status batch or report chunk with its authentication tag) to one
// comfortable loopback datagram — on encode and on decode.
const maxWireCtrl = 60000

// ctrlOffset is where a control frame's payload starts in its encoding:
// after the fixed header and the uint16 payload length.
const ctrlOffset = wireHeaderLen + 2

// datagramBudget is the size past which a pending datagram stops taking
// frames: under one Ethernet MTU's UDP payload, so a coalesced datagram
// never fragments on a real link. A single frame larger than the budget
// (a long session timeline, a control payload) still travels, alone.
const datagramBudget = 1400

// EncodeFrame serializes a frame into the binary wire format: a
// single-frame datagram, in a buffer sized to it.
func EncodeFrame(f Frame) []byte {
	n := wireHeaderLen
	switch {
	case f.Kind == FrameMap:
		n += 8 + 8 + 2 + min(len(f.Sessions), maxWireSessions)*20 + 2 + len(f.MapImg)
	case f.Kind.Control():
		n += 2 + min(len(f.Ctrl), maxWireCtrl)
	}
	return appendFrame(make([]byte, 0, n), &f)
}

// AppendFrame appends the frame's wire encoding to b and returns the
// extended slice — EncodeFrame without the allocation, for building a
// datagram of several frames in a reused buffer.
func AppendFrame(b []byte, f Frame) []byte { return appendFrame(b, &f) }

// appendFrame is the encoder. It clamps f's slices to the wire bounds in
// place, so f must be the caller's own copy (a Frame is ~150 bytes; the
// pointer spares the exported entry points a second copy).
func appendFrame(b []byte, f *Frame) []byte {
	if len(f.Sessions) > maxWireSessions {
		f.Sessions = f.Sessions[:maxWireSessions]
	}
	kind := byte(f.Kind)
	if f.ReReq && f.Kind == FrameRequest {
		kind |= wireReReqBit
	}
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint32(b, uint32(f.Msg.From))
	b = binary.LittleEndian.AppendUint32(b, uint32(f.Msg.To))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(f.Msg.Seg)))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(f.Msg.Sent)))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.Msg.ArrivalMS))
	switch f.Kind {
	case FrameMap:
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(f.MaxSeen)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.Rate))
		b = binary.LittleEndian.AppendUint16(b, uint16(len(f.Sessions)))
		for _, s := range f.Sessions {
			b = binary.LittleEndian.AppendUint32(b, uint32(int32(s.Source)))
			b = binary.LittleEndian.AppendUint64(b, uint64(int64(s.Begin)))
			b = binary.LittleEndian.AppendUint64(b, uint64(int64(s.End)))
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(f.MapImg)))
		b = append(b, f.MapImg...)
	case FrameHello, FrameEvent, FrameAck, FramePing, FramePong:
		b = appendCtrl(b, f.Ctrl)
	}
	return b
}

func appendCtrl(b, ctrl []byte) []byte {
	if len(ctrl) > maxWireCtrl {
		ctrl = ctrl[:maxWireCtrl]
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(ctrl)))
	return append(b, ctrl...)
}

// DecodeFrame parses a single-frame datagram, strictly: bytes left over
// after the frame are an error. The returned frame owns its slices
// (nothing aliases the input).
func DecodeFrame(b []byte) (Frame, error) {
	f, rest, err := decodeOne(b)
	if err != nil {
		return f, err
	}
	if len(rest) != 0 {
		return f, fmt.Errorf("runtime: %d trailing bytes on a %s frame", len(rest), f.Kind)
	}
	f.Ctrl = bytes.Clone(f.Ctrl)
	return f, nil
}

// decodeDatagram parses a datagram of 1..n back-to-back frames into dst
// (reused from its start), in wire order, and records in ends (reused
// likewise) where each frame's bytes stop: frame i is
// b[ends[i-1]:ends[i]], as the decoder delimited it. It is
// all-or-nothing: one malformed frame (or an empty datagram) rejects the
// whole datagram, because past a bad frame the boundaries of its
// successors cannot be trusted. A control frame's Ctrl aliases b (the
// reader hands the control handler the frame's bytes, never the frame);
// every other slice is the frame's own.
func decodeDatagram(b []byte, dst []Frame, ends []int) ([]Frame, []int, error) {
	dst, ends = dst[:0], ends[:0]
	for rest := b; ; {
		f, next, err := decodeOne(rest)
		if err != nil {
			return dst[:0], ends[:0], err
		}
		dst = append(dst, f)
		ends = append(ends, len(b)-len(next))
		if len(next) == 0 {
			return dst, ends, nil
		}
		rest = next
	}
}

// decodeOne parses the frame at the head of b and returns the bytes that
// follow it.
func decodeOne(b []byte) (Frame, []byte, error) {
	var f Frame
	if err := decodeHeader(b, &f); err != nil {
		return f, nil, err
	}
	rest := b[wireHeaderLen:]
	var err error
	switch f.Kind {
	case FrameMap:
		return decodeMapPayload(f, rest)
	case FrameRequest, FrameDeny, FrameData:
	case FrameHello, FrameEvent, FrameAck, FramePing, FramePong:
		f.Ctrl, rest, err = decodeCtrl(rest)
	default:
		return f, nil, fmt.Errorf("runtime: unknown frame kind %d", b[0])
	}
	if err != nil {
		return f, nil, err
	}
	return f, rest, nil
}

// decodeHeader parses the fixed header at the head of b into f.
func decodeHeader(b []byte, f *Frame) error {
	if len(b) < wireHeaderLen {
		return fmt.Errorf("runtime: frame of %d bytes, want >= %d", len(b), wireHeaderLen)
	}
	f.Kind = FrameKind(b[0] &^ wireReReqBit)
	f.ReReq = b[0]&wireReReqBit != 0
	if f.ReReq && f.Kind != FrameRequest {
		return fmt.Errorf("runtime: re-request flag on a %s frame", f.Kind)
	}
	f.Msg.From = overlay.NodeID(binary.LittleEndian.Uint32(b[1:]))
	f.Msg.To = overlay.NodeID(binary.LittleEndian.Uint32(b[5:]))
	f.Msg.Seg = segment.ID(int64(binary.LittleEndian.Uint64(b[9:])))
	f.Msg.Sent = int(int32(binary.LittleEndian.Uint32(b[17:])))
	f.Msg.ArrivalMS = math.Float64frombits(binary.LittleEndian.Uint64(b[21:]))
	return nil
}

func decodeMapPayload(f Frame, rest []byte) (Frame, []byte, error) {
	if len(rest) < 8+8+2 {
		return f, nil, fmt.Errorf("runtime: truncated map frame (%d payload bytes)", len(rest))
	}
	f.MaxSeen = segment.ID(int64(binary.LittleEndian.Uint64(rest[0:])))
	f.Rate = math.Float64frombits(binary.LittleEndian.Uint64(rest[8:]))
	nsess := int(binary.LittleEndian.Uint16(rest[16:]))
	rest = rest[18:]
	if nsess > maxWireSessions {
		return f, nil, fmt.Errorf("runtime: map frame advertises %d sessions (max %d)", nsess, maxWireSessions)
	}
	if len(rest) < nsess*20+2 {
		return f, nil, fmt.Errorf("runtime: truncated session list (%d sessions, %d bytes left)", nsess, len(rest))
	}
	if nsess > 0 {
		f.Sessions = make([]SessionInfo, nsess)
		for i := range f.Sessions {
			f.Sessions[i] = SessionInfo{
				Source: overlay.NodeID(int32(binary.LittleEndian.Uint32(rest[i*20:]))),
				Begin:  segment.ID(int64(binary.LittleEndian.Uint64(rest[i*20+4:]))),
				End:    segment.ID(int64(binary.LittleEndian.Uint64(rest[i*20+12:]))),
			}
		}
	}
	rest = rest[nsess*20:]
	maplen := int(binary.LittleEndian.Uint16(rest[0:]))
	rest = rest[2:]
	if len(rest) < maplen {
		return f, nil, fmt.Errorf("runtime: map image length %d, frame carries %d bytes", maplen, len(rest))
	}
	if maplen > 0 {
		f.MapImg = append([]byte(nil), rest[:maplen]...)
	}
	return f, rest[maplen:], nil
}

func decodeCtrl(b []byte) ([]byte, []byte, error) {
	if len(b) < 2 {
		return nil, b, fmt.Errorf("runtime: truncated control payload length")
	}
	clen := int(binary.LittleEndian.Uint16(b[0:]))
	b = b[2:]
	if clen > maxWireCtrl {
		return nil, b, fmt.Errorf("runtime: control payload of %d bytes (max %d)", clen, maxWireCtrl)
	}
	if len(b) < clen {
		return nil, b, fmt.Errorf("runtime: control payload %d bytes, frame carries %d", clen, len(b))
	}
	var ctrl []byte
	if clen > 0 {
		ctrl = b[:clen:clen]
	}
	return ctrl, b[clen:], nil
}

// ControlAuth authenticates sealed control frames (SealControl,
// OpenControl): Tag appends to dst the TagLen-byte tag of msg, and
// Verify reports whether tag is msg's tag. Both may run concurrently.
type ControlAuth interface {
	TagLen() int
	Tag(dst, msg []byte) []byte
	Verify(msg, tag []byte) bool
}

// SealControl encodes a sealed control frame: f's header (f.Ctrl is
// ignored), then a control payload of the given payload and auth's tag.
// The tag covers every byte before it — header, payload length and
// payload — so addressing and sequence numbers are as authentic as the
// payload. The frame costs one allocation, sized to it. A payload that
// would push the frame's payload past its bound (maxWireCtrl with the
// tag) is an error.
func SealControl(f Frame, payload []byte, auth ControlAuth) ([]byte, error) {
	if !f.Kind.Control() {
		return nil, fmt.Errorf("runtime: cannot seal a %s frame", f.Kind)
	}
	n := len(payload) + auth.TagLen()
	if n > maxWireCtrl {
		return nil, fmt.Errorf("runtime: control payload of %d bytes exceeds the bound of %d",
			len(payload), maxWireCtrl-auth.TagLen())
	}
	f.Ctrl = nil
	b := appendFrame(make([]byte, 0, ctrlOffset+n), &f)
	binary.LittleEndian.PutUint16(b[ctrlOffset-2:], uint16(n))
	b = append(b, payload...)
	return auth.Tag(b, b), nil
}

// OpenControl authenticates one received control frame — exactly one
// frame's bytes, as the transport's reader delimited them (SetControl).
// Header and payload are parsed from those bytes alone, and the tag is
// checked over everything before it, so what OpenControl returns is
// what was authenticated: the frame, with Ctrl the bare payload
// (aliasing wire). False means malformed, forged or corrupted.
func OpenControl(wire []byte, auth ControlAuth) (Frame, bool) {
	var f Frame
	if decodeHeader(wire, &f) != nil || !f.Kind.Control() || len(wire) < ctrlOffset {
		return Frame{}, false
	}
	n := int(binary.LittleEndian.Uint16(wire[ctrlOffset-2:]))
	tagAt := len(wire) - auth.TagLen()
	if n > maxWireCtrl || len(wire) != ctrlOffset+n || tagAt < ctrlOffset ||
		!auth.Verify(wire[:tagAt], wire[tagAt:]) {
		return Frame{}, false
	}
	f.Ctrl = wire[ctrlOffset:tagAt:tagAt]
	return f, true
}
