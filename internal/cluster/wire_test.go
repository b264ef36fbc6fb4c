package cluster

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gossipstream/internal/netmodel"
	"gossipstream/internal/overlay"
	"gossipstream/internal/runtime"
	"gossipstream/internal/scenario"
	"gossipstream/internal/segment"
)

// filler sets every field reachable from a value to a distinct non-zero
// value: the first float of each message is a NaN (compared by bits),
// slices get two elements, pointers a filled target. A field it cannot
// fill (unexported, or of a kind the codec has no form for) panics.
type filler struct {
	n   int
	nan bool
}

func (fl *filler) fill(v reflect.Value, path string) {
	fl.n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			sf := v.Type().Field(i)
			if !sf.IsExported() {
				panic(fmt.Sprintf("%s.%s is unexported: the control codec cannot carry it", path, sf.Name))
			}
			fl.fill(v.Field(i), path+"."+sf.Name)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fl.fill(v.Elem(), path)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fl.fill(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fl.fill(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(fl.n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		u := uint64(fl.n)
		if v.OverflowUint(u) {
			u = u%250 + 1
		}
		v.SetUint(u)
	case reflect.Float32, reflect.Float64:
		if !fl.nan {
			fl.nan = true
			v.SetFloat(math.NaN())
		} else {
			v.SetFloat(float64(fl.n) + 0.25)
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", fl.n))
	default:
		panic(fmt.Sprintf("%s: field kind %s has no filler (and maybe no codec)", path, v.Kind()))
	}
}

// sameBits is reflect.DeepEqual with floats compared by their bits.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a.Equal(b)
}

// fullMessages is one message of every kind in the alphabet, every
// field — nested types included — filled by the filler.
func fullMessages() []any {
	ms := []any{&Hello{}, &Welcome{}, &Start{}, &runtime.Directive{}, &Status{}, &Report{}, &S1End{}, fence{}}
	for _, m := range ms {
		if v := reflect.ValueOf(m); v.Kind() == reflect.Pointer {
			new(filler).fill(v.Elem(), v.Elem().Type().Name())
		}
	}
	return ms
}

// TestControlCodecCarriesEveryField: a message of each kind with every
// exported field set to a distinct non-zero value round-trips exactly.
// A field added later to any of these types, or to the sim and runtime
// types they carry, fails here until the codec carries it.
func TestControlCodecCarriesEveryField(t *testing.T) {
	ms := fullMessages()
	if len(ms) != int(kindFence) {
		t.Fatalf("%d messages for %d kinds", len(ms), kindFence)
	}
	for i, m := range ms {
		b := appendMsg(nil, m)
		if b[0] != uint8(i+1) {
			t.Fatalf("%T encodes as kind %d, want %d", m, b[0], i+1)
		}
		got, err := decodeMsg(b)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if reflect.TypeOf(got) != reflect.TypeOf(m) || !sameBits(reflect.ValueOf(got), reflect.ValueOf(m)) {
			t.Fatalf("%T did not round-trip:\n got %+v\nwant %+v", m, got, m)
		}
	}
}

// status27 is a 27-node shard's per-tick status with its health sample.
func status27() *Status {
	st := &Status{Shard: 1, Tick: 523, Idle: true, AppliedSeq: 14,
		Health: &runtime.HealthSample{Tick: 523, Peers: 27, InboxDepth: 3, Overruns: 1}}
	for i := 0; i < 27; i++ {
		st.Nodes = append(st.Nodes, runtime.NodeStatus{ID: overlay.NodeID(3*i + 1), Alive: true,
			MaxSeen: segment.ID(5200 + i), WindowLo: segment.ID(4600 + i)})
	}
	return st
}

// TestControlPayloadSizes pins the encoded size of the per-tick bulk
// and of a failover directive: a layout change shows here (and must
// bump codecVersion).
func TestControlPayloadSizes(t *testing.T) {
	for _, c := range []struct {
		name string
		m    any
		want int
	}{
		// kind, shard, tick, idle, applied, count, 27 × (id, alive,
		// source, maxSeen, windowLo), presence, 9 health fields.
		{"27-node status", status27(), 1 + 8 + 8 + 1 + 8 + 2 + 27*nodeStatusLen + 1 + 9*8},
		// kind, the 95 fixed bytes of sim.Directive, its three empty
		// lists, the dead shard, the respawn count, two respawns (owner,
		// id, neighbour count and ids, anchor, profile), resolved.
		{"two-respawn reassignment", reassignSeed(), 1 + 95 + 3*2 + 8 + 2 + (8 + joinMinLen + 2*4) + (8 + joinMinLen) + 1},
	} {
		if got := len(appendMsg(nil, c.m)); got != c.want {
			t.Errorf("%s: %d bytes, want %d", c.name, got, c.want)
		}
	}
	if got, want := len(status27().Nodes)*nodeStatusLen, 594; got != want {
		t.Errorf("27 node records: %d bytes, want %d", got, want)
	}
}

// TestControlDecodeRejects: the decoder is strict — truncation at any
// byte, trailing bytes, an unknown kind, a bool byte beyond 1 and a
// count the payload cannot hold are all errors.
func TestControlDecodeRejects(t *testing.T) {
	good := appendMsg(nil, reassignSeed())
	for n := 0; n < len(good); n++ {
		if _, err := decodeMsg(good[:n]); err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte directive decoded", n, len(good))
		}
	}
	for name, b := range map[string][]byte{
		"trailing byte": append(appendMsg(nil, fence{}), 0),
		"kind 0":        {0},
		"kind 9":        {kindFence + 1},
		"bool byte 2":   {kindS1End, 0, 0, 0, 0, 0, 0, 0, 0, 2},
		"huge count":    {kindStart, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff},
	} {
		if m, err := decodeMsg(b); err == nil {
			t.Errorf("%s: decoded %#v", name, m)
		}
	}
}

// TestOversizedMessagesAreRefused: a message past the control frame's
// bound is an error, never a panic. cast drops it, send refuses it
// without taking a sequence number, and Serve refuses a run whose
// shards' statuses could not travel.
func TestOversizedMessagesAreRefused(t *testing.T) {
	s := newSealer([]byte("k"))
	for _, n := range []int{2800, 70000} { // past the byte bound; past the uint16 count
		if _, err := s.seal(runtime.Frame{Kind: runtime.FrameEvent}, &Status{Nodes: make([]runtime.NodeStatus, n)}); err == nil {
			t.Fatalf("a %d-node status sealed", n)
		}
	}
	if _, err := s.seal(runtime.Frame{Kind: runtime.FrameEvent}, &Status{Nodes: make([]runtime.NodeStatus, 2700)}); err != nil {
		t.Fatalf("a 2700-node status: %v", err)
	}

	l := testLink(t, 0, "k", 1)
	big := &Status{Nodes: make([]runtime.NodeStatus, 2800)}
	l.cast(5, big)
	if err := l.send(5, big); err == nil {
		t.Fatal("send accepted an oversized message")
	}
	if seq := l.lastSeq(5); seq != 0 || l.sealDrops.Load() != 2 {
		t.Fatalf("after two oversized messages: last seq %d, %d drops; want 0 and 2", seq, l.sealDrops.Load())
	}
	if err := l.send(5, &S1End{}); err != nil || l.lastSeq(5) != 1 {
		t.Fatalf("the next message: %v, seq %d; want sequence number 1", err, l.lastSeq(5))
	}

	_, _, err := Serve(Config{Scenario: scenario.PaperSingleSwitch().Scaled(5600), Workers: 1, Token: "k"})
	if err == nil || !strings.Contains(err.Error(), "run more workers") {
		t.Fatalf("two shards of 2800 nodes: %v, want a refusal", err)
	}
}

// TestCodecVersionMismatchRefused: a hello one codec version ahead gets
// no welcome — the coordinator answers with a hello of its own version
// — and the joiner fails with an error naming both versions. The
// refused joiner takes no shard: the next joiner of the run's version
// is welcomed as shard 1.
func TestCodecVersionMismatchRefused(t *testing.T) {
	coord := testLink(t, 0, "k", 1)
	joiner := testLink(t, -1, "k", 2)
	var mu sync.Mutex
	var logs []string
	cfg := Config{Workers: 1,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		}}
	done := make(chan error, 1)
	go func() {
		_, err := awaitWorkers(cfg, scenario.PaperSingleSwitch().Scaled(30), coord, 2)
		done <- err
	}()

	_, _, err := awaitWelcome(JoinConfig{Starter: coord.addr, Token: "k"}, joiner, codecVersion+1)
	if err == nil {
		t.Fatal("a joiner of another codec version was welcomed")
	}
	for _, v := range []uint8{codecVersion, codecVersion + 1} {
		if !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) {
			t.Fatalf("error %q does not name version %d", err, v)
		}
	}
	good := testLink(t, -1, "k", 3)
	joined := make(chan error, 1)
	go func() {
		_, ack, err := awaitWelcome(JoinConfig{Starter: coord.addr, Token: "k"}, good, codecVersion)
		if err == nil {
			ack()
		}
		joined <- err
	}()
	for pending := 2; pending > 0; pending-- {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case err := <-joined:
			if err != nil {
				t.Fatalf("the joiner of the run's version: %v", err)
			}
		}
	}
	if addrs := coord.table.snapshot(); len(addrs) != 2 || addrs[1] != good.addr {
		t.Fatalf("shard table %q after the joins, want shard 1 at %s: the coordinator counted the refused joiner as joined", addrs, good.addr)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logs) == 0 || !strings.Contains(logs[0], "refused joiner "+joiner.addr) {
		t.Fatalf("coordinator logs %q, want the refusal", logs)
	}
}

// TestCastEncodesOnce: casting a status seals it in one pass — the
// frame's bytes are its only allocation (the HMAC state and staging
// buffer are pooled).
func TestCastEncodesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	l := testLink(t, 0, "k", 1)
	st := status27()
	// Shard 5 is not in the table, so transmit stops before the
	// transport: what is counted is the encoding.
	if n := testing.AllocsPerRun(100, func() { l.cast(5, st) }); n != 1 {
		t.Fatalf("casting a 27-node status costs %.1f allocations, want 1", n)
	}
}

// TestOpenAllocatesNothing: authentication reads the received bytes in
// place — only decoding the message allocates.
func TestOpenAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	s := newSealer([]byte("k"))
	wire := mustSeal(s, runtime.Frame{Kind: runtime.FrameEvent, Msg: netmodel.Message{From: 1}}, status27())
	n := testing.AllocsPerRun(100, func() {
		if _, ok := runtime.OpenControl(wire, s); !ok {
			t.Fatal("authentic frame rejected")
		}
	})
	if n != 0 {
		t.Fatalf("opening a sealed status costs %.1f allocations, want 0", n)
	}
}

// TestRetryResendsStoredBytes: every retransmission is the very bytes
// first sent — read off a raw socket standing in for the peer shard —
// and a retry pass encodes nothing.
func TestRetryResendsStoredBytes(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("udp bind unavailable: %v", err)
	}
	defer conn.Close()
	l := testLink(t, 0, "k", 1)
	l.table.store([]string{l.addr, conn.LocalAddr().String()})
	l.send(1, reassignSeed())
	l.mu.Lock()
	want := l.pending[pendKey{1, 1}]
	l.mu.Unlock()
	buf := make([]byte, 64<<10)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < 3; i++ { // the first send and two retries
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[:n], want) {
			t.Fatalf("datagram %d differs from the sealed frame:\n got %x\nwant %x", i, buf[:n], want)
		}
	}

	if raceEnabled {
		return // the allocation count below is not meaningful under race
	}
	idle := testLink(t, 0, "k", 2)
	due := idle.retryOnce(nil)
	if n := testing.AllocsPerRun(100, func() { due = idle.retryOnce(due[:0]) }); n != 0 {
		t.Fatalf("a retry pass with nothing pending costs %.1f allocations, want 0", n)
	}
	idle.send(7, reassignSeed()) // shard 7 is not in the table: transmit stops early
	due = idle.retryOnce(due[:0])
	if n := testing.AllocsPerRun(100, func() { due = idle.retryOnce(due[:0]) }); n != 0 {
		t.Fatalf("a retry pass costs %.1f allocations, want 0 (it re-sends stored bytes)", n)
	}
}
