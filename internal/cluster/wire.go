package cluster

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/gob"
	"fmt"

	"gossipstream/internal/runtime"
	"gossipstream/internal/segment"
	"gossipstream/internal/sim"
)

// macLen is the truncated HMAC-SHA256 tag appended to every control
// frame's Ctrl field. 128 bits: comfortably beyond forgery on a
// control plane that moves a few hundred frames per run.
const macLen = 16

// seal authenticates a control frame in place: the tag is computed
// over the frame's full wire encoding (header and payload — so sequence
// numbers, addressing and the shard address table a welcome or start
// carries are all covered) and appended to Ctrl.
func seal(f *runtime.Frame, token []byte) {
	mac := hmac.New(sha256.New, token)
	mac.Write(runtime.EncodeFrame(*f))
	f.Ctrl = append(f.Ctrl, mac.Sum(nil)[:macLen]...)
}

// open verifies and strips the tag, restoring Ctrl to the bare
// payload. It reports false for short, forged or corrupted frames —
// the caller drops them like any malformed datagram.
func open(f *runtime.Frame, token []byte) bool {
	if len(f.Ctrl) < macLen {
		return false
	}
	tag := f.Ctrl[len(f.Ctrl)-macLen:]
	inner := *f
	inner.Ctrl = f.Ctrl[:len(f.Ctrl)-macLen]
	mac := hmac.New(sha256.New, token)
	mac.Write(runtime.EncodeFrame(inner))
	if !hmac.Equal(tag, mac.Sum(nil)[:macLen]) {
		return false
	}
	f.Ctrl = inner.Ctrl
	return true
}

// The control-plane message alphabet, carried gob-encoded in the Ctrl
// payload of FrameHello, FrameEvent and FrameAck.

// Hello is a joining process knocking on the starter node: the address
// of the process's one socket, so the coordinator can answer it and list
// it in the shard table.
type Hello struct {
	Addr string
}

// Welcome is the coordinator's answer — everything a joiner needs to
// reconstruct the run: its shard assignment, the full scenario text
// (compiled locally, so graph and profiles agree by construction), the
// pacing and algorithm, and the shard address table so far (by shard,
// "" for a worker not yet joined; the coordinator's and the joiner's own
// are always there).
type Welcome struct {
	Shard     int
	Shards    int
	Scenario  string
	TimeScale float64
	Algo      string
	Addrs     []string
}

// Start releases the shards once every expected worker has joined. It
// carries the complete shard address table.
type Start struct {
	Workers int
	Addrs   []string
}

// Status is one shard's per-tick heartbeat: where its clock is, whether
// its windows are closed, the highest directive it has applied, and its
// nodes' failure-detector state for the coordinator's resolutions.
// Health piggybacks the shard's compact observability summary on the
// same unreliable cast — the cluster's health gossip rides the existing
// status stream rather than a second reporting channel. (Gob tolerates
// the field being absent, so mixed-version processes interoperate.)
type Status struct {
	Shard      int
	Tick       int
	Idle       bool
	AppliedSeq uint64
	Nodes      []runtime.NodeStatus
	Health     *runtime.HealthSample
}

// Report ships one window of a shard's finished result back for the
// merge — one message per window keeps every datagram far below the
// wire codec's control-payload bound regardless of how many windows a
// scenario opened. Count is the shard's total window count (a shard
// with no windows sends a single Count=0 marker so the coordinator
// still learns it finished).
type Report struct {
	Shard     int
	Algo      string
	WindowIdx int
	Count     int
	Window    *sim.SwitchMetrics
}

// S1End is the reply payload of a DirStopSource ack: the closing
// segment id of the stopped source's session.
type S1End struct {
	Seg segment.ID
	OK  bool
}

// Payload is the gob envelope: exactly one pointer field is set,
// selected by Kind.
type Payload struct {
	Kind    string // "hello", "welcome", "start", "directive", "status", "report", "s1end", "fence"
	Hello   *Hello
	Welcome *Welcome
	Start   *Start
	Dir     *runtime.Directive
	Status  *Status
	Report  *Report
	S1End   *S1End
}

// encodePayload gob-encodes one envelope.
func encodePayload(p *Payload) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		// Every payload type is a plain exported struct; an encode error
		// is a programming bug, not an input condition.
		panic(fmt.Sprintf("cluster: gob encode: %v", err))
	}
	return buf.Bytes()
}

// decodePayload parses an envelope; errors mean a malformed (but
// authenticated — so version-skewed) payload.
func decodePayload(b []byte) (*Payload, error) {
	p := new(Payload)
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(p); err != nil {
		return nil, fmt.Errorf("cluster: payload decode: %w", err)
	}
	return p, nil
}
