package cluster

import (
	"bytes"
	"testing"

	"gossipstream/internal/bandwidth"
	"gossipstream/internal/overlay"
	"gossipstream/internal/runtime"
	"gossipstream/internal/sim"
)

// FuzzWireDecode fuzzes the cluster's wire surface end to end: the
// frame codec (runtime.EncodeFrame/DecodeFrame), the HMAC seal, and the
// gob control envelope. Any byte slice must either be rejected or
// decode to a frame whose re-encoding is byte-identical to the input —
// the codec is strict (no trailing bytes, no non-canonical forms), so
// decode∘encode is the identity on accepted inputs. Byte comparison,
// not DeepEqual: the header carries raw float bits, and a NaN
// ArrivalMS or Rate is a perfectly legal frame that DeepEqual would
// misjudge. Frames that also pass authentication feed the gob payload
// decoder, which must fail cleanly rather than panic.
func FuzzWireDecode(f *testing.F) {
	token := []byte("fuzz-wire-token")
	sealed := func(kind runtime.FrameKind, seq int, p *Payload) []byte {
		fr := runtime.Frame{Kind: kind}
		fr.Msg.Sent = seq
		fr.Ctrl = encodePayload(p)
		seal(&fr, token)
		return runtime.EncodeFrame(fr)
	}
	f.Add(sealed(runtime.FrameHello, 1, &Payload{Kind: "hello", Hello: &Hello{Addr: "127.0.0.1:9"}}))
	f.Add(sealed(runtime.FrameEvent, 7, &Payload{Kind: "status", Status: &Status{Shard: 1, Tick: 42, Idle: true}}))
	f.Add(sealed(runtime.FrameAck, 2, &Payload{Kind: "start", Start: &Start{Workers: 3}}))
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
	retired := sealed(runtime.FrameEvent, 3, &Payload{Kind: "fence"})
	retired[0] = 6
	f.Add(retired)
	// The failover alphabet: a reassignment directive with respawn specs,
	// a fence, and the keepalive ping/pong pair.
	f.Add(sealed(runtime.FrameEvent, 9, &Payload{Kind: "directive", Dir: &runtime.Directive{
		Directive: sim.Directive{Kind: runtime.DirReassign, Tick: 18}, DeadShard: 2,
		Respawns: []runtime.RespawnSpec{
			{Owner: 0, Join: sim.JoinSpec{ID: 2, Neighbors: []overlay.NodeID{1, 5}, Anchor: 40, Profile: bandwidth.Profile{In: 512, Out: 512}}},
			{Owner: 1, Join: sim.JoinSpec{ID: 5, Anchor: 41}},
		},
	}}))
	f.Add(sealed(runtime.FrameEvent, 11, &Payload{Kind: "fence"}))
	ping := runtime.Frame{Kind: runtime.FramePing}
	ping.Msg.To, ping.Msg.Seg = 2, 7
	seal(&ping, token)
	f.Add(runtime.EncodeFrame(ping))
	pong := runtime.Frame{Kind: runtime.FramePong}
	pong.Msg.From, pong.Msg.Seg = 2, 7
	seal(&pong, token)
	f.Add(runtime.EncodeFrame(pong))

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
		if fr.Kind.Control() && open(&fr, token) {
			// Authenticated control payloads reach the gob decoder; a
			// malformed one (version skew) must error, never panic.
			_, _ = decodePayload(fr.Ctrl)
		}
	})
}
