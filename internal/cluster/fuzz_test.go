package cluster

import (
	"bytes"
	"testing"

	"gossipstream/internal/bandwidth"
	"gossipstream/internal/overlay"
	"gossipstream/internal/runtime"
	"gossipstream/internal/sim"
)

// fuzzToken keys the sealed seeds of FuzzWireDecode (and its corpus
// files under testdata/fuzz/FuzzWireDecode).
var fuzzToken = []byte("fuzz-wire-token")

// sealedSeed seals one message the way the link does.
func sealedSeed(kind runtime.FrameKind, seq int, m any) []byte {
	fr := runtime.Frame{Kind: kind}
	fr.Msg.Sent = seq
	return mustSeal(newSealer(fuzzToken), fr, m)
}

// mustSeal seals a message that fits one control frame.
func mustSeal(s *sealer, f runtime.Frame, m any) []byte {
	wire, err := s.seal(f, m)
	if err != nil {
		panic(err)
	}
	return wire
}

// reassignSeed is a reassignment directive with two respawn specs: the
// failover alphabet's largest message in the fuzz seeds.
func reassignSeed() *runtime.Directive {
	return &runtime.Directive{
		Directive: sim.Directive{Kind: runtime.DirReassign, Tick: 18}, DeadShard: 2,
		Respawns: []runtime.RespawnSpec{
			{Owner: 0, Join: sim.JoinSpec{ID: 2, Neighbors: []overlay.NodeID{1, 5}, Anchor: 40, Profile: bandwidth.Profile{In: 512, Out: 512}}},
			{Owner: 1, Join: sim.JoinSpec{ID: 5, Anchor: 41}},
		},
	}
}

// FuzzWireDecode fuzzes the cluster's wire surface end to end: the
// frame codec (runtime.EncodeFrame/DecodeFrame), the HMAC seal, and the
// control payload codec. Any byte slice must either be rejected or
// decode to a frame whose re-encoding is byte-identical to the input —
// the codec is strict (no trailing bytes, no non-canonical forms), so
// decode∘encode is the identity on accepted inputs. Byte comparison,
// not DeepEqual: the header carries raw float bits, and a NaN
// ArrivalMS or Rate is a perfectly legal frame that DeepEqual would
// misjudge. Frames that also pass authentication feed the payload
// decoder, which must fail cleanly rather than panic (FuzzControlPayload
// fuzzes that decoder directly: a fuzzer cannot forge the tag).
func FuzzWireDecode(f *testing.F) {
	f.Add(sealedSeed(runtime.FrameHello, 1, &Hello{Version: codecVersion, Addr: "127.0.0.1:9"}))
	f.Add(sealedSeed(runtime.FrameEvent, 7, &Status{Shard: 1, Tick: 42, Idle: true}))
	f.Add(sealedSeed(runtime.FrameAck, 2, &Start{Workers: 3}))
	data := runtime.Frame{Kind: runtime.FrameData}
	data.Msg.From, data.Msg.To, data.Msg.Seg, data.Msg.Sent, data.Msg.ArrivalMS = 3, 9, 1234, 17, 88.5
	f.Add(runtime.EncodeFrame(data))
	rereq := runtime.Frame{Kind: runtime.FrameRequest, ReReq: true}
	rereq.Msg.Seg = 55
	f.Add(runtime.EncodeFrame(rereq))
	mapFrame := runtime.Frame{Kind: runtime.FrameMap, MapImg: bytes.Repeat([]byte{0xa5}, 78), MaxSeen: 600, Rate: 10.5}
	f.Add(runtime.EncodeFrame(mapFrame))
	// The retired kind 6 on an otherwise well-formed sealed frame, which
	// the decoder rejects (TestWireDecodeErrors pins that).
	retired := sealedSeed(runtime.FrameEvent, 3, fence{})
	retired[0] = 6
	f.Add(retired)
	// The failover alphabet: a reassignment directive with respawn specs,
	// a fence, and the keepalive ping/pong pair.
	f.Add(sealedSeed(runtime.FrameEvent, 9, reassignSeed()))
	f.Add(sealedSeed(runtime.FrameEvent, 11, fence{}))
	ping := runtime.Frame{Kind: runtime.FramePing}
	ping.Msg.To, ping.Msg.Seg = 2, 7
	f.Add(mustSeal(newSealer(fuzzToken), ping, nil))
	pong := runtime.Frame{Kind: runtime.FramePong}
	pong.Msg.From, pong.Msg.Seg = 2, 7
	f.Add(mustSeal(newSealer(fuzzToken), pong, nil))

	s := newSealer(fuzzToken)
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := runtime.DecodeFrame(b)
		if err != nil {
			return // rejected input is fine; crashing or looping is not
		}
		enc := runtime.EncodeFrame(fr)
		if !bytes.Equal(enc, b) {
			t.Fatalf("decode/encode not the identity:\n in: %x\nout: %x", b, enc)
		}
		if _, err := runtime.DecodeFrame(enc); err != nil {
			t.Fatalf("re-encoded frame rejected: %v\n%x", err, enc)
		}
		if opened, ok := runtime.OpenControl(b, s); ok {
			// Authenticated control payloads reach the payload decoder;
			// a malformed one (version skew) must error, never panic.
			if opened.Msg != fr.Msg || opened.Kind != fr.Kind {
				t.Fatalf("opened header %+v, decoded %+v", opened.Msg, fr.Msg)
			}
			_, _ = decodeMsg(opened.Ctrl)
		}
	})
}

// FuzzControlPayload feeds raw bytes to the control payload decoder:
// any input must be rejected or decode to a message that re-encodes
// byte for byte — the codec is strict, so nothing it accepts has a
// second encoding, and no count allocates beyond the bytes present.
func FuzzControlPayload(f *testing.F) {
	for _, m := range fullMessages() {
		f.Add(appendMsg(nil, m))
	}
	f.Add(appendMsg(nil, reassignSeed()))
	f.Add(appendMsg(nil, &Status{Shard: 1, Tick: 42, Idle: true}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeMsg(b)
		if err != nil {
			if m != nil {
				t.Fatalf("rejected payload returned %#v", m)
			}
			return
		}
		if enc := appendMsg(nil, m); !bytes.Equal(enc, b) {
			t.Fatalf("decode/encode not the identity for %T:\n in: %x\nout: %x", m, b, enc)
		}
	})
}
