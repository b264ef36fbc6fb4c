package runtime

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"

	"gossipstream/internal/buffer"
	"gossipstream/internal/netmodel"
	"gossipstream/internal/overlay"
	"gossipstream/internal/segment"
)

func TestWireRoundTrip(t *testing.T) {
	buf := buffer.New(600)
	for id := segment.ID(100); id < 180; id += 3 {
		buf.Insert(id)
	}
	img, err := buf.Snapshot().Encode()
	if err != nil {
		t.Fatalf("encode map image: %v", err)
	}
	frames := []Frame{
		{Kind: FrameRequest, Msg: netmodel.Message{From: 3, To: 9, Seg: 1234, Sent: 41}},
		{Kind: FrameDeny, Msg: netmodel.Message{From: 9, To: 3, Seg: 1234, Sent: 41}},
		{Kind: FrameData, Msg: netmodel.Message{From: 9, To: 3, Seg: 1234, Sent: 41, ArrivalMS: 41234.5}},
		{Kind: FrameData, Msg: netmodel.Message{From: 0, To: 1, Seg: segment.None, Sent: 0}},
		{
			Kind:    FrameMap,
			Msg:     netmodel.Message{From: 7, To: 8, Seg: segment.None, Sent: 99},
			MapImg:  img,
			MaxSeen: 179,
			Rate:    12.5,
			Sessions: []SessionInfo{
				{Source: 4, Begin: 0, End: 399},
				{Source: 27, Begin: 400, End: segment.None},
			},
		},
		{Kind: FrameMap, Msg: netmodel.Message{From: 1, To: 2, Seg: segment.None}, MaxSeen: segment.None},
		{Kind: FrameRequest, Msg: netmodel.Message{From: 3, To: 9, Seg: 1234, Sent: 44}, ReReq: true},
		{
			Kind:    FrameMap,
			Msg:     netmodel.Message{From: 7, To: 8, Seg: segment.None, Sent: 99},
			MapImg:  img,
			MaxSeen: 179,
		},
		{Kind: FrameHello, Msg: netmodel.Message{From: 1001, To: 1000, Seg: segment.None, Sent: 1},
			Ctrl: []byte("sealed-hello-payload")},
		{Kind: FramePing, Msg: netmodel.Message{From: 0, To: 2, Seg: 4},
			Ctrl: []byte{0xde, 0xad, 0xbe, 0xef}},
		{Kind: FrameEvent, Msg: netmodel.Message{From: 1000, To: 1002, Seg: segment.None, Sent: 17},
			Ctrl: make([]byte, 2000)},
		{Kind: FrameAck, Msg: netmodel.Message{From: 1002, To: 1000, Seg: 17, Sent: 0},
			Ctrl: []byte("reply")},
		{Kind: FrameAck, Msg: netmodel.Message{From: 1002, To: 1000, Seg: 3}},
	}
	for i, f := range frames {
		got, err := DecodeFrame(EncodeFrame(f))
		if err != nil {
			t.Fatalf("frame %d (%s): decode: %v", i, f.Kind, err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Errorf("frame %d (%s): round trip\n got %+v\nwant %+v", i, f.Kind, got, f)
		}
	}
	// The decoded map must behave as a core.View for the planner.
	f := frames[4]
	got, _ := DecodeFrame(EncodeFrame(f))
	m, err := buffer.DecodeMap(got.MapImg, 600)
	if err != nil {
		t.Fatalf("decode map: %v", err)
	}
	for id := segment.ID(95); id < 185; id++ {
		if m.Has(id) != buf.Has(id) {
			t.Fatalf("decoded map disagrees with buffer at %d", id)
		}
	}
}

func TestWireDecodeErrors(t *testing.T) {
	good := EncodeFrame(Frame{Kind: FrameMap, Msg: netmodel.Message{From: 1, To: 2},
		Sessions: []SessionInfo{{Source: 1, Begin: 0, End: segment.None}}})
	event := EncodeFrame(Frame{Kind: FrameEvent, Msg: netmodel.Message{From: 1, To: 2, Seg: segment.None, Sent: 5},
		Ctrl: []byte("sealed")})
	deny := EncodeFrame(Frame{Kind: FrameDeny, Msg: netmodel.Message{From: 9, To: 3, Seg: 12}})

	oversized := append(event[:ctrlOffset:ctrlOffset], make([]byte, maxWireCtrl+1)...)
	binary.LittleEndian.PutUint16(oversized[ctrlOffset-2:], maxWireCtrl+1)

	cases := map[string][]byte{
		"empty":               nil,
		"short header":        good[:10],
		"bad kind":            append([]byte{0x7f}, good[1:]...),
		"truncated payload":   good[:len(good)-3],
		"trailing junk":       append(append([]byte(nil), good...), 1, 2, 3),
		"re-req on deny":      append([]byte{byte(FrameDeny) | wireReReqBit}, deny[1:]...),
		"re-req on event":     append([]byte{byte(FrameEvent) | wireReReqBit}, event[1:]...),
		"retired kind 6":      append([]byte{6}, event[1:]...),
		"truncated ctrl":      event[:len(event)-2],
		"short ctrl length":   event[:wireHeaderLen+1],
		"event trailing junk": append(append([]byte(nil), event...), 9),
		"oversized ctrl":      oversized,
		"headerless hello":    EncodeFrame(Frame{Kind: FrameHello, Msg: netmodel.Message{From: 1, To: 2}})[:wireHeaderLen],
	}
	for name, b := range cases {
		if _, err := DecodeFrame(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestWireGarbageFuzz hammers the decoder with mutated valid frames and
// raw noise: it must never panic, and whatever decodes must re-encode
// (the decoder's bounds checks are the only defense the UDP read loop
// has against a hostile or corrupted datagram).
func TestWireGarbageFuzz(t *testing.T) {
	seeds := [][]byte{
		EncodeFrame(Frame{Kind: FrameRequest, Msg: netmodel.Message{From: 3, To: 9, Seg: 77, Sent: 4}, ReReq: true}),
		EncodeFrame(Frame{Kind: FrameMap, Msg: netmodel.Message{From: 1, To: 2, Seg: segment.None},
			MaxSeen: 50, Rate: 5,
			Sessions: []SessionInfo{{Source: 1, Begin: 0, End: segment.None}},
			MapImg:   make([]byte, 80)}),
		EncodeFrame(Frame{Kind: FramePong, Msg: netmodel.Message{From: 1, To: 2, Seg: 3},
			Ctrl: []byte("tag")}),
		EncodeFrame(Frame{Kind: FrameEvent, Msg: netmodel.Message{From: 1, To: 2, Seg: segment.None, Sent: 9},
			Ctrl: []byte("payload-bytes")}),
	}
	rng := rand.New(rand.NewSource(0xf022))
	for round := 0; round < 20000; round++ {
		b := append([]byte(nil), seeds[round%len(seeds)]...)
		switch round % 3 {
		case 0: // flip random bytes
			for i := 0; i < 1+round%4; i++ {
				b[rng.Intn(len(b))] ^= byte(rng.Intn(256))
			}
		case 1: // truncate
			b = b[:rng.Intn(len(b)+1)]
		case 2: // extend with noise
			extra := make([]byte, rng.Intn(40))
			for i := range extra {
				extra[i] = byte(rng.Intn(256))
			}
			b = append(b, extra...)
		}
		f, err := DecodeFrame(b)
		if err != nil {
			continue
		}
		// Whatever survives decode must be internally consistent enough
		// to encode again without panicking.
		_ = EncodeFrame(f)
	}
}

// TestWireSingleFrameGolden pins the bytes of a single-frame datagram to
// the encoding in use before datagrams carried several frames, so old and
// new processes interoperate on the cluster control link (which writes
// EncodeFrame's bytes and reads them with the strict DecodeFrame).
func TestWireSingleFrameGolden(t *testing.T) {
	cases := []struct {
		f    Frame
		want string
	}{
		{Frame{Kind: FrameRequest, ReReq: true, Msg: netmodel.Message{From: 3, To: 9, Seg: 1234, Sent: 41}},
			"820300000009000000d204000000000000290000000000000000000000"},
		{Frame{Kind: FrameMap, Msg: netmodel.Message{From: 7, To: 8, Seg: segment.None, Sent: 99},
			MapImg: []byte{0xa5, 0x5a, 0x01}, MaxSeen: 179, Rate: 12.5,
			Sessions: []SessionInfo{{Source: 4, Begin: 0, End: 399}, {Source: 27, Begin: 400, End: segment.None}}},
			"010700000008000000ffffffffffffffff630000000000000000000000b300000000000000000000000000294002000400000000000000000000008f010000000000001b0000009001000000000000ffffffffffffffff0300a55a01"},
	}
	for _, c := range cases {
		want, err := hex.DecodeString(c.want)
		if err != nil {
			t.Fatal(err)
		}
		if got := EncodeFrame(c.f); !bytes.Equal(got, want) {
			t.Errorf("%s: EncodeFrame\n got %x\nwant %x", c.f.Kind, got, want)
		}
		if got := AppendFrame([]byte{0xee}, c.f); !bytes.Equal(got[1:], want) || got[0] != 0xee {
			t.Errorf("%s: AppendFrame\n got %x\nwant ee%x", c.f.Kind, got, want)
		}
	}
}

// randomFrame draws one frame of a random kind with a random payload.
func randomFrame(rng *rand.Rand) Frame {
	f := Frame{Msg: netmodel.Message{
		From: overlay.NodeID(rng.Intn(1 << 20)), To: overlay.NodeID(rng.Intn(1 << 20)),
		Seg: segment.ID(rng.Int63n(1<<40)) - 1, Sent: rng.Intn(1 << 20),
	}}
	noise := func(n int) []byte {
		if n == 0 {
			return nil // what the decoder returns for an empty payload
		}
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	switch rng.Intn(7) {
	case 0:
		f.Kind = FrameMap
		f.MapImg, f.MaxSeen, f.Rate = noise(rng.Intn(90)), segment.ID(rng.Int63n(1<<30)), rng.Float64()*40
		for i := rng.Intn(4); i > 0; i-- {
			f.Sessions = append(f.Sessions, SessionInfo{Source: overlay.NodeID(rng.Intn(100)), Begin: segment.ID(rng.Int63n(5000)), End: segment.None})
		}
	case 1:
		f.Kind, f.ReReq = FrameRequest, rng.Intn(2) == 0
	case 2:
		f.Kind = FrameDeny
	case 3, 4:
		f.Kind, f.Msg.ArrivalMS = FrameData, rng.Float64()*300
	case 5:
		f.Kind, f.Ctrl = FrameAck, noise(rng.Intn(33))
	case 6:
		f.Kind, f.Ctrl = FrameEvent, noise(rng.Intn(200))
	}
	return f
}

// TestDatagramRoundTrip: k random frames of mixed kinds appended with
// AppendFrame decode back to the same k frames in order, and a datagram
// with any one frame cut short or given an unknown kind is rejected whole.
func TestDatagramRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(0xda7a))
	for round := 0; round < 300; round++ {
		k := 1 + rng.Intn(12)
		frames := make([]Frame, k)
		ends := make([]int, k) // ends[i]: datagram length after frame i
		var dg []byte
		for i := range frames {
			frames[i] = randomFrame(rng)
			dg = AppendFrame(dg, frames[i])
			ends[i] = len(dg)
		}
		got, gotEnds, err := decodeDatagram(dg, nil, nil)
		if err != nil {
			t.Fatalf("round %d: %d frames: %v", round, k, err)
		}
		if !reflect.DeepEqual(got, frames) {
			t.Fatalf("round %d: round trip\n got %+v\nwant %+v", round, got, frames)
		}
		if !reflect.DeepEqual(gotEnds, ends) {
			t.Fatalf("round %d: frame ends %v, want %v", round, gotEnds, ends)
		}
		if _, err := DecodeFrame(dg); (err == nil) != (k == 1) {
			t.Fatalf("round %d: strict DecodeFrame on %d frames: err=%v", round, k, err)
		}

		i := rng.Intn(k)
		start := 0
		if i > 0 {
			start = ends[i-1]
		}
		cut := start + 1 + rng.Intn(ends[i]-start-1) // strictly inside frame i
		if out, _, err := decodeDatagram(dg[:cut], got, gotEnds); err == nil || len(out) != 0 {
			t.Fatalf("round %d: frame %d of %d cut at byte %d: err=%v, %d frames kept", round, i, k, cut-start, err, len(out))
		}
		bad := append([]byte(nil), dg...)
		bad[start] = 0x7f
		if out, _, err := decodeDatagram(bad, got, gotEnds); err == nil || len(out) != 0 {
			t.Fatalf("round %d: frame %d of %d with an unknown kind: err=%v, %d frames kept", round, i, k, err, len(out))
		}
	}
	if _, _, err := decodeDatagram(nil, nil, nil); err == nil {
		t.Fatal("empty datagram decoded without error")
	}
}

// TestWireMapFrameBytes pins the size of the advertisement every peer
// sends each neighbor every period: a one-session map frame of a B=600
// buffer is 147 bytes — the 29-byte header, high-water mark, rate,
// one 20-byte session and the 78-byte image. No address rides it.
func TestWireMapFrameBytes(t *testing.T) {
	img, err := buffer.New(600).Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	f := Frame{Kind: FrameMap, MapImg: img, MaxSeen: 599, Rate: 10,
		Sessions: []SessionInfo{{Source: 0, Begin: 0, End: segment.None}}}
	if n := len(EncodeFrame(f)); n != 147 {
		t.Fatalf("one-session map frame is %d bytes, want 147", n)
	}
}

// TestEncodeFrameAllocatesOnce: EncodeFrame sizes its buffer for every
// frame kind, so a sealed control frame with a large payload costs one
// allocation, not a chain of appends.
func TestEncodeFrameAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	f := Frame{Kind: FrameEvent, Msg: netmodel.Message{From: 0, To: 1, Sent: 3}, Ctrl: make([]byte, 4096)}
	if n := testing.AllocsPerRun(100, func() { _ = EncodeFrame(f) }); n != 1 {
		t.Fatalf("encoding a %d-byte control frame costs %.1f allocations, want 1", len(f.Ctrl), n)
	}
}

// TestControlDatagramDecodesInPlace: the datagram decoder reads control
// payloads in place — the reader hands the control handler each frame's
// bytes, never the decoded frame — so a datagram of two control frames
// decodes without an allocation once dst and ends are warm. DecodeFrame
// still returns a frame that owns its payload.
func TestControlDatagramDecodesInPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	ev := Frame{Kind: FrameEvent, Msg: netmodel.Message{From: 1, Sent: 3}, Ctrl: []byte("status")}
	ack := Frame{Kind: FrameAck, Msg: netmodel.Message{From: 1, Seg: 3}, Ctrl: []byte("tag")}
	dg := append(EncodeFrame(ev), EncodeFrame(ack)...)
	frames, ends, err := decodeDatagram(dg, nil, nil)
	if err != nil || len(frames) != 2 {
		t.Fatalf("decoded %d frames, err %v", len(frames), err)
	}
	if n := testing.AllocsPerRun(100, func() { frames, ends, _ = decodeDatagram(dg, frames, ends) }); n != 0 {
		t.Fatalf("decoding a datagram of two control frames costs %.1f allocations, want 0", n)
	}
	single := EncodeFrame(ev)
	f, err := DecodeFrame(single)
	if err != nil {
		t.Fatal(err)
	}
	single[len(single)-1] ^= 0xff
	if string(f.Ctrl) != "status" {
		t.Fatalf("DecodeFrame's payload %q aliases its input", f.Ctrl)
	}
}

// FuzzDecodeDatagram: the datagram decoder must never panic, and the
// codec is strict — whatever decodes re-encodes to the very bytes that
// were read, so frame boundaries are never ambiguous.
func FuzzDecodeDatagram(f *testing.F) {
	rng := rand.New(rand.NewSource(0xf0dd))
	for k := 1; k <= 6; k++ {
		var dg []byte
		for i := 0; i < k; i++ {
			dg = AppendFrame(dg, randomFrame(rng))
		}
		f.Add(dg)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		frames, _, err := decodeDatagram(b, nil, nil)
		if err != nil {
			if len(frames) != 0 {
				t.Fatalf("rejected datagram kept %d frames", len(frames))
			}
			return
		}
		var enc []byte
		for _, fr := range frames {
			enc = AppendFrame(enc, fr)
		}
		if !bytes.Equal(enc, b) {
			t.Fatalf("decode∘encode is not the identity on %d frames\n in  %x\n out %x", len(frames), b, enc)
		}
		// Compared as bytes: a NaN ArrivalMS is never DeepEqual to itself.
		if one, err := DecodeFrame(b); (err == nil) != (len(frames) == 1) {
			t.Fatalf("strict DecodeFrame disagrees on %d frames: %v", len(frames), err)
		} else if err == nil && !bytes.Equal(EncodeFrame(one), b) {
			t.Fatalf("strict DecodeFrame decoded %+v, datagram decoder %+v", one, frames[0])
		}
	})
}

// testAuth is a ControlAuth over HMAC-SHA256, truncated to 16 bytes.
type testAuth []byte

func (a testAuth) TagLen() int { return 16 }

func (a testAuth) Tag(dst, msg []byte) []byte {
	m := hmac.New(sha256.New, a)
	m.Write(msg)
	return append(dst, m.Sum(nil)[:16]...)
}

func (a testAuth) Verify(msg, tag []byte) bool { return hmac.Equal(tag, a.Tag(nil, msg)) }

// TestSealOpenControl: a sealed control frame is a well-formed frame
// whose opened header and payload are the ones sealed; a tag under
// another key, trailing or missing bytes, a non-control frame and a
// payload past the bound are all refused.
func TestSealOpenControl(t *testing.T) {
	auth := testAuth("k")
	hdr := Frame{Kind: FrameEvent, Msg: netmodel.Message{From: 1, To: 2, Seg: 3, Sent: 4}}
	wire, err := SealControl(hdr, []byte("payload"), auth)
	if err != nil {
		t.Fatal(err)
	}
	if f, err := DecodeFrame(wire); err != nil || !bytes.Equal(EncodeFrame(f), wire) {
		t.Fatalf("sealed frame is not a canonical frame: %v", err)
	}
	f, ok := OpenControl(wire, auth)
	if !ok || f.Kind != FrameEvent || f.Msg != hdr.Msg || string(f.Ctrl) != "payload" {
		t.Fatalf("opened %+v (%v), want the sealed header and payload", f, ok)
	}
	for name, b := range map[string][]byte{
		"other key":      nil,
		"trailing byte":  append(append([]byte(nil), wire...), 0),
		"missing byte":   wire[:len(wire)-1],
		"header only":    wire[:wireHeaderLen],
		"map frame kind": append([]byte{byte(FrameMap)}, wire[1:]...),
	} {
		a := ControlAuth(auth)
		if b == nil {
			b, a = wire, testAuth("j")
		}
		if _, ok := OpenControl(b, a); ok {
			t.Errorf("%s: opened", name)
		}
	}

	if _, err := SealControl(hdr, make([]byte, maxWireCtrl-auth.TagLen()), auth); err != nil {
		t.Fatalf("payload at the bound: %v", err)
	}
	if _, err := SealControl(hdr, make([]byte, maxWireCtrl-auth.TagLen()+1), auth); err == nil {
		t.Fatal("payload past the bound sealed")
	}
	if _, err := SealControl(Frame{Kind: FrameMap}, nil, auth); err == nil {
		t.Fatal("a map frame sealed")
	}
}
