package cluster

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"sync"

	"gossipstream/internal/bandwidth"
	"gossipstream/internal/overlay"
	"gossipstream/internal/runtime"
	"gossipstream/internal/segment"
	"gossipstream/internal/sim"
	"gossipstream/internal/stats"
)

// macLen is the truncated HMAC-SHA256 tag that ends every control
// frame's Ctrl field. 128 bits: comfortably beyond forgery on a
// control plane that moves a few hundred frames per run.
const macLen = 16

// sealer authenticates control frames under one shared token — the
// runtime.ControlAuth the frame layout (runtime.SealControl,
// runtime.OpenControl) calls. Its scratch (HMAC states and payload
// buffers) is pooled, so sealing costs one allocation — the frame's
// bytes — and opening none; seal and open run concurrently on the run
// loop, the reader and timers.
type sealer struct {
	macs sync.Pool // *macScratch
	bufs sync.Pool // *[]byte, a payload staging buffer
}

type macScratch struct {
	mac hash.Hash
	sum [sha256.Size]byte
}

func newSealer(token []byte) *sealer {
	s := &sealer{}
	s.macs.New = func() any { return &macScratch{mac: hmac.New(sha256.New, token)} }
	s.bufs.New = func() any { return new([]byte) }
	return s
}

// seal encodes a control frame once — f's header, the message m (nil
// for a bare ack, ping or pong) and the tag — and returns the bytes to
// send; f.Ctrl is ignored. A message whose payload does not fit one
// control frame is an error: it cannot travel.
func (s *sealer) seal(f runtime.Frame, m any) ([]byte, error) {
	buf := s.bufs.Get().(*[]byte)
	*buf = appendMsg((*buf)[:0], m)
	wire, err := runtime.SealControl(f, *buf, s)
	s.bufs.Put(buf)
	if err != nil {
		return nil, fmt.Errorf("cluster: sealing %T: %w", m, err)
	}
	return wire, nil
}

// TagLen, Tag and Verify make the sealer a runtime.ControlAuth.
func (s *sealer) TagLen() int { return macLen }

func (s *sealer) Tag(dst, msg []byte) []byte {
	sc := s.macs.Get().(*macScratch)
	dst = append(dst, sc.tag(msg)...)
	s.macs.Put(sc)
	return dst
}

func (s *sealer) Verify(msg, tag []byte) bool {
	sc := s.macs.Get().(*macScratch)
	ok := hmac.Equal(tag, sc.tag(msg))
	s.macs.Put(sc)
	return ok
}

// tag is msg's truncated HMAC, in the scratch's own buffer.
func (sc *macScratch) tag(msg []byte) []byte {
	sc.mac.Reset()
	sc.mac.Write(msg)
	return sc.mac.Sum(sc.sum[:0])[:macLen]
}

// The control-plane message alphabet, carried in the Ctrl payload of
// FrameHello and FrameEvent as one kind byte and the kind's
// fixed little-endian layout (appendMsg, decodeMsg; docs/RUNTIME.md,
// "Control payload format"). A message is one of *Hello, *Welcome,
// *Start, *runtime.Directive, *Status, *Report, *S1End or fence.

// codecVersion numbers the control payload format. A hello carries it
// and the coordinator welcomes only its own version: any change to a
// layout below, or to what a message means, bumps it, so two builds
// never misread each other. The hello's own layout (kind, version,
// address) is the one that never changes — it is how a mismatch is
// told. Version 2: an ack carries no payload, and the stop-source
// answer is an S1End message of its own.
const codecVersion uint8 = 2

// Message kinds, the payload's first byte.
const (
	kindHello uint8 = iota + 1
	kindWelcome
	kindStart
	kindDirective
	kindStatus
	kindReport
	kindS1End
	kindFence
)

// Hello is a joining process knocking on the starter node: its control
// codec version and the address of the process's one socket, so the
// coordinator can answer it and list it in the shard table. The
// coordinator answers a joiner of another version with a hello of its
// own instead of a welcome.
type Hello struct {
	Version uint8
	Addr    string
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
// status stream rather than a second reporting channel. Every field
// travels; a process of another codec version is refused at the hello.
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

// S1End answers a DirStopSource: the owning shard sends the closing
// segment id of the stopped source's session (OK false: it owned no
// such running source) back to the coordinator as an ordinary
// sequenced message.
type S1End struct {
	Seg segment.ID
	OK  bool
}

// fence tells a shard the coordinator declared it dead.
type fence struct{}

// appendMsg appends m's encoding to b; nil appends nothing (a bare
// payload). Every field is fixed-width little-endian: int, segment.ID
// and uint64 as 8 bytes, node ids as 4, kinds and bools as 1, floats as
// their IEEE 754 bits; slices and strings are a uint16 count, then the
// elements; a pointer is a presence byte, then the value.
func appendMsg(b []byte, m any) []byte {
	switch m := m.(type) {
	case nil:
	case *Hello:
		b = append(b, kindHello, m.Version)
		b = appendStr(b, m.Addr)
	case *Welcome:
		b = append(b, kindWelcome)
		b = appendInt(b, m.Shard)
		b = appendInt(b, m.Shards)
		b = appendStr(b, m.Scenario)
		b = appendF64(b, m.TimeScale)
		b = appendStr(b, m.Algo)
		b = appendStrs(b, m.Addrs)
	case *Start:
		b = append(b, kindStart)
		b = appendInt(b, m.Workers)
		b = appendStrs(b, m.Addrs)
	case *runtime.Directive:
		b = append(b, kindDirective)
		b = appendDirective(b, m)
	case *Status:
		b = append(b, kindStatus)
		b = appendInt(b, m.Shard)
		b = appendInt(b, m.Tick)
		b = appendBool(b, m.Idle)
		b = binary.LittleEndian.AppendUint64(b, m.AppliedSeq)
		b = appendCount(b, len(m.Nodes))
		for _, n := range m.Nodes {
			b = appendNode(b, n.ID)
			b = appendBool(b, n.Alive)
			b = appendBool(b, n.IsSource)
			b = appendInt(b, int(n.MaxSeen))
			b = appendInt(b, int(n.WindowLo))
		}
		b = appendBool(b, m.Health != nil)
		if h := m.Health; h != nil {
			for _, v := range [...]int64{int64(h.Tick), int64(h.Peers), int64(h.InboxDepth),
				h.Holes, h.ReRequests, int64(h.Overruns), h.DataLost, h.InboxDropped, h.KernelDrops} {
				b = binary.LittleEndian.AppendUint64(b, uint64(v))
			}
		}
	case *Report:
		b = append(b, kindReport)
		b = appendInt(b, m.Shard)
		b = appendStr(b, m.Algo)
		b = appendInt(b, m.WindowIdx)
		b = appendInt(b, m.Count)
		b = appendBool(b, m.Window != nil)
		if m.Window != nil {
			b = appendMetrics(b, m.Window)
		}
	case *S1End:
		b = append(b, kindS1End)
		b = appendInt(b, int(m.Seg))
		b = appendBool(b, m.OK)
	case fence:
		b = append(b, kindFence)
	default:
		panic(fmt.Sprintf("cluster: no control encoding for %T", m))
	}
	return b
}

func appendDirective(b []byte, d *runtime.Directive) []byte {
	b = append(b, uint8(d.Kind))
	b = appendInt(b, d.Tick)
	b = appendNode(b, d.Old)
	b = appendNode(b, d.New)
	b = appendInt(b, int(d.S1End))
	b = appendInt(b, d.Horizon)
	b = appendBool(b, d.Failure)
	b = appendNode(b, d.Node)
	b = appendInt(b, int(d.Anchor))
	b = appendInt(b, d.Ticks)
	b = appendInt(b, d.Until)
	b = appendF64(b, d.Factor)
	b = appendF64(b, d.Prob)
	b = appendF64(b, d.Frac)
	b = appendBool(b, d.ByPing)
	b = appendInt(b, int(d.Seed))
	b = appendNodes(b, d.Leaves)
	b = appendCount(b, len(d.Repair))
	for _, e := range d.Repair {
		b = appendNode(appendNode(b, e[0]), e[1])
	}
	b = appendCount(b, len(d.Joins))
	for i := range d.Joins {
		b = appendJoin(b, &d.Joins[i])
	}
	b = appendInt(b, d.DeadShard)
	b = appendCount(b, len(d.Respawns))
	for i := range d.Respawns {
		b = appendInt(b, d.Respawns[i].Owner)
		b = appendJoin(b, &d.Respawns[i].Join)
	}
	return appendBool(b, d.Resolved)
}

func appendJoin(b []byte, j *sim.JoinSpec) []byte {
	b = appendNode(b, j.ID)
	b = appendNodes(b, j.Neighbors)
	b = appendInt(b, int(j.Anchor))
	b = appendF64(b, j.Profile.In)
	return appendF64(b, j.Profile.Out)
}

func appendMetrics(b []byte, w *sim.SwitchMetrics) []byte {
	b = appendInt(b, w.Window)
	b = appendStr(b, w.Kind)
	b = appendInt(b, w.Tick)
	b = appendNode(b, w.OldSource)
	b = appendNode(b, w.NewSource)
	b = appendBool(b, w.Failure)
	b = appendInt(b, w.Nodes)
	b = appendInt(b, w.Cohort)
	b = appendF64s(b, w.FinishS1Times)
	b = appendF64s(b, w.PrepareS2Times)
	b = appendF64s(b, w.StartS2Times)
	b = appendInt(b, w.UnfinishedS1)
	b = appendInt(b, w.UnpreparedS2)
	b = appendSeries(b, w.UndeliveredS1)
	b = appendSeries(b, w.DeliveredS2)
	for _, v := range [...]int64{w.ControlBits, w.DataBits, w.NetDelivered, w.NetLost, w.NetReRequests} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = appendF64(b, w.NetDelaySeconds)
	b = appendInt(b, int(w.PlayedSegments))
	b = appendInt(b, int(w.StalledSlots))
	b = appendInt(b, w.MeasuredTicks)
	b = appendBool(b, w.HitHorizon)
	return appendBool(b, w.Interrupted)
}

func appendSeries(b []byte, s *stats.Series) []byte {
	b = appendBool(b, s != nil)
	if s == nil {
		return b
	}
	b = appendStr(b, s.Label)
	b = appendF64s(b, s.X)
	return appendF64s(b, s.Y)
}

func appendInt(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
}

func appendNode(b []byte, id overlay.NodeID) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(int32(id)))
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendCount writes a slice or string length. A count past the uint16
// range wraps, but every element takes at least a byte, so such a
// payload is past the control frame's bound too and seal refuses it.
func appendCount(b []byte, n int) []byte {
	return binary.LittleEndian.AppendUint16(b, uint16(n))
}

func appendStr(b []byte, s string) []byte {
	return append(appendCount(b, len(s)), s...)
}

func appendStrs(b []byte, ss []string) []byte {
	b = appendCount(b, len(ss))
	for _, s := range ss {
		b = appendStr(b, s)
	}
	return b
}

func appendNodes(b []byte, ids []overlay.NodeID) []byte {
	b = appendCount(b, len(ids))
	for _, id := range ids {
		b = appendNode(b, id)
	}
	return b
}

func appendF64s(b []byte, vs []float64) []byte {
	b = appendCount(b, len(vs))
	for _, v := range vs {
		b = appendF64(b, v)
	}
	return b
}

// decodeMsg parses one control payload, strictly: an unknown kind, a
// bool byte other than 0 or 1, a count the remaining bytes cannot hold
// (checked before anything is allocated) and trailing bytes are all
// errors, so whatever decodes re-encodes to the very bytes read. An
// error means a malformed (but authenticated — so version-skewed)
// payload.
func decodeMsg(b []byte) (any, error) {
	d := decoder{b: b}
	var m any
	switch kind := d.u8(); kind {
	case kindHello:
		m = &Hello{Version: d.u8(), Addr: d.str()}
	case kindWelcome:
		m = &Welcome{Shard: d.int(), Shards: d.int(), Scenario: d.str(),
			TimeScale: d.f64(), Algo: d.str(), Addrs: d.strs()}
	case kindStart:
		m = &Start{Workers: d.int(), Addrs: d.strs()}
	case kindDirective:
		m = d.directive()
	case kindStatus:
		m = d.status()
	case kindReport:
		r := &Report{Shard: d.int(), Algo: d.str(), WindowIdx: d.int(), Count: d.int()}
		if d.bool() {
			r.Window = d.metrics()
		}
		m = r
	case kindS1End:
		m = &S1End{Seg: segment.ID(d.int()), OK: d.bool()}
	case kindFence:
		m = fence{}
	default:
		if d.err == nil {
			d.err = fmt.Errorf("unknown message kind %d", kind)
		}
	}
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, fmt.Errorf("cluster: payload decode: %w", d.err)
	}
	return m, nil
}

// decoder reads a payload front to back; the first error sticks, and
// every read after it returns zero values.
type decoder struct {
	b   []byte
	err error
}

var errShort = errors.New("truncated payload")

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.err = errShort
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) u8() uint8 {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if p := d.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (d *decoder) int() int        { return int(int64(d.u64())) }
func (d *decoder) f64() float64    { return math.Float64frombits(d.u64()) }
func (d *decoder) seg() segment.ID { return segment.ID(d.int()) }
func (d *decoder) node() overlay.NodeID {
	if p := d.take(4); p != nil {
		return overlay.NodeID(int32(binary.LittleEndian.Uint32(p)))
	}
	return 0
}

func (d *decoder) bool() bool {
	v := d.u8()
	if v > 1 && d.err == nil {
		d.err = fmt.Errorf("bool byte %d", v)
	}
	return v == 1
}

// count reads a length whose elements take at least elem bytes each,
// rejecting it before any allocation when the payload cannot hold them.
func (d *decoder) count(elem int) int {
	p := d.take(2)
	if p == nil {
		return 0
	}
	n := int(binary.LittleEndian.Uint16(p))
	if n*elem > len(d.b) {
		d.err = fmt.Errorf("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return n
}

func (d *decoder) str() string { return string(d.take(d.count(1))) }

func (d *decoder) strs() []string {
	n := d.count(2)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.str()
	}
	return ss
}

func (d *decoder) nodes() []overlay.NodeID {
	n := d.count(4)
	if n == 0 {
		return nil
	}
	ids := make([]overlay.NodeID, n)
	for i := range ids {
		ids[i] = d.node()
	}
	return ids
}

func (d *decoder) f64s() []float64 {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = d.f64()
	}
	return vs
}

func (d *decoder) directive() *runtime.Directive {
	m := &runtime.Directive{}
	m.Kind = sim.DirKind(d.u8())
	m.Tick = d.int()
	m.Old = d.node()
	m.New = d.node()
	m.S1End = d.seg()
	m.Horizon = d.int()
	m.Failure = d.bool()
	m.Node = d.node()
	m.Anchor = d.seg()
	m.Ticks = d.int()
	m.Until = d.int()
	m.Factor = d.f64()
	m.Prob = d.f64()
	m.Frac = d.f64()
	m.ByPing = d.bool()
	m.Seed = int64(d.int())
	m.Leaves = d.nodes()
	if n := d.count(8); n > 0 {
		m.Repair = make([][2]overlay.NodeID, n)
		for i := range m.Repair {
			m.Repair[i] = [2]overlay.NodeID{d.node(), d.node()}
		}
	}
	if n := d.count(joinMinLen); n > 0 {
		m.Joins = make([]sim.JoinSpec, n)
		for i := range m.Joins {
			m.Joins[i] = d.join()
		}
	}
	m.DeadShard = d.int()
	if n := d.count(8 + joinMinLen); n > 0 {
		m.Respawns = make([]runtime.RespawnSpec, n)
		for i := range m.Respawns {
			m.Respawns[i] = runtime.RespawnSpec{Owner: d.int(), Join: d.join()}
		}
	}
	m.Resolved = d.bool()
	return m
}

// joinMinLen is a JoinSpec's encoding without neighbours.
const joinMinLen = 4 + 2 + 8 + 8 + 8

func (d *decoder) join() sim.JoinSpec {
	return sim.JoinSpec{ID: d.node(), Neighbors: d.nodes(), Anchor: d.seg(),
		Profile: bandwidth.Profile{In: d.f64(), Out: d.f64()}}
}

// nodeStatusLen is one NodeStatus's encoding.
const nodeStatusLen = 4 + 1 + 1 + 8 + 8

func (d *decoder) status() *Status {
	m := &Status{Shard: d.int(), Tick: d.int(), Idle: d.bool(), AppliedSeq: d.u64()}
	if n := d.count(nodeStatusLen); n > 0 {
		m.Nodes = make([]runtime.NodeStatus, n)
		for i := range m.Nodes {
			m.Nodes[i] = runtime.NodeStatus{ID: d.node(), Alive: d.bool(), IsSource: d.bool(),
				MaxSeen: d.seg(), WindowLo: d.seg()}
		}
	}
	if d.bool() {
		m.Health = &runtime.HealthSample{Tick: d.int(), Peers: d.int(), InboxDepth: d.int(),
			Holes: int64(d.int()), ReRequests: int64(d.int()), Overruns: d.int(),
			DataLost: int64(d.int()), InboxDropped: int64(d.int()), KernelDrops: int64(d.int())}
	}
	return m
}

func (d *decoder) metrics() *sim.SwitchMetrics {
	return &sim.SwitchMetrics{
		Window: d.int(), Kind: d.str(), Tick: d.int(),
		OldSource: d.node(), NewSource: d.node(), Failure: d.bool(),
		Nodes: d.int(), Cohort: d.int(),
		FinishS1Times: d.f64s(), PrepareS2Times: d.f64s(), StartS2Times: d.f64s(),
		UnfinishedS1: d.int(), UnpreparedS2: d.int(),
		UndeliveredS1: d.series(), DeliveredS2: d.series(),
		ControlBits: int64(d.int()), DataBits: int64(d.int()),
		NetDelivered: int64(d.int()), NetLost: int64(d.int()), NetReRequests: int64(d.int()),
		NetDelaySeconds: d.f64(),
		PlayedSegments:  int64(d.int()), StalledSlots: int64(d.int()),
		MeasuredTicks: d.int(), HitHorizon: d.bool(), Interrupted: d.bool(),
	}
}

func (d *decoder) series() *stats.Series {
	if !d.bool() {
		return nil
	}
	return &stats.Series{Label: d.str(), X: d.f64s(), Y: d.f64s()}
}
