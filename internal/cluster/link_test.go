package cluster

import (
	"encoding/binary"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"gossipstream/internal/netmodel"
	"gossipstream/internal/overlay"
	"gossipstream/internal/runtime"
	"gossipstream/internal/scenario"
	"gossipstream/internal/sim"
)

// testPolicy is a mutable LinkPolicy stub: a switchable full block and
// a flat loss probability, standing in for the run's netmodel.
type testPolicy struct {
	mu      sync.Mutex
	blocked bool
	loss    float64
}

func (p *testPolicy) DelayMS(a, b overlay.NodeID, jitterMS float64) float64 { return 0 }
func (p *testPolicy) JitterMS() float64                                     { return 0 }

func (p *testPolicy) LossProb(tick int) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.loss
}

func (p *testPolicy) Blocked(a, b overlay.NodeID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.blocked
}

func (p *testPolicy) set(blocked bool, loss float64) {
	p.mu.Lock()
	p.blocked = blocked
	p.loss = loss
	p.mu.Unlock()
}

var _ netmodel.LinkPolicy = (*testPolicy)(nil)

// testLink builds a link over a UDP transport of its own — one process's
// socket on an ephemeral loopback port — closed with the test.
func testLink(t *testing.T, shard int, token string, seed int64) *link {
	t.Helper()
	tr := runtime.NewUDPTransport(seed)
	l, err := newLink(tr, "", shard, token, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.close(); tr.Close() })
	return l
}

// linkPair wires two links (shards 0 and 1) with one shard table, each
// over its own transport behind its own policy object — like two
// processes that each applied the same scenario directives to their own
// model.
func linkPair(t *testing.T, token string) (*link, *link, *testPolicy, *testPolicy) {
	t.Helper()
	a := testLink(t, 0, token, 11)
	b := testLink(t, 1, token, 12)
	a.table.store([]string{a.addr, b.addr})
	b.table.store(a.table.snapshot())
	pa, pb := &testPolicy{}, &testPolicy{}
	a.tr.SetPolicy(pa)
	b.tr.SetPolicy(pb)
	return a, b, pa, pb
}

// ackAll drains a link's inbox on a goroutine, acking every sequenced
// message and recording delivered directive ticks in order.
func ackAll(l *link, into chan<- int) {
	go func() {
		for m := range l.inbox {
			if d, ok := m.P.(*runtime.Directive); ok {
				into <- d.Tick
			}
			m.Ack()
		}
	}()
}

// TestLinkLossyDeliveryInOrder drives the reliable channel through 40%
// loss on both directions: every message must still arrive, exactly
// once, in sequence order — the property scenario events depend on
// when a loss burst breaks over a handoff.
func TestLinkLossyDeliveryInOrder(t *testing.T) {
	a, b, pa, pb := linkPair(t, "secret")
	pa.set(false, 0.4)
	pb.set(false, 0.4)
	got := make(chan int, 64)
	ackAll(b, got)

	const n = 20
	for i := 1; i <= n; i++ {
		a.send(1, &runtime.Directive{Directive: sim.Directive{Kind: sim.DirMeasure, Tick: i}})
	}
	for want := 1; want <= n; want++ {
		select {
		case tick := <-got:
			if tick != want {
				t.Fatalf("delivery %d carried tick %d (out of order or duplicated)", want, tick)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("message %d never delivered through 40%% loss", want)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for !a.pendingEmpty(1) {
		if time.Now().After(deadline) {
			t.Fatal("sender still holds unacked frames after full delivery")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestLinkShapedDelayKeepsTheSeal: control frames the shaper delays —
// both ways, the directive and its ack — still authenticate. The shaped
// delay must not be written into a sealed frame.
func TestLinkShapedDelayKeepsTheSeal(t *testing.T) {
	a, b, _, _ := linkPair(t, "secret")
	a.tr.SetPolicy(netmodel.Flat{Delay: 30})
	b.tr.SetPolicy(netmodel.Flat{Delay: 30})
	got := make(chan int, 1)
	ackAll(b, got)
	a.send(1, &runtime.Directive{Directive: sim.Directive{Kind: sim.DirMeasure, Tick: 9}})
	select {
	case tick := <-got:
		if tick != 9 {
			t.Fatalf("delivered tick %d, want 9", tick)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delayed directive never authenticated")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !a.pendingEmpty(1) {
		if time.Now().After(deadline) {
			t.Fatal("delayed ack never authenticated")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestPartitionSeversControlPlane pins the control plane's partition
// semantics: a directive sent across a severed link does not arrive;
// once the sender's side heals (the coordinator applies its own heal
// first), the retry lands even though the receiver's policy still
// carries the partition — outbound-only policing — and the ack flows
// back only after the receiver heals too.
func TestPartitionSeversControlPlane(t *testing.T) {
	a, b, pa, pb := linkPair(t, "secret")
	got := make(chan int, 8)
	ackAll(b, got)

	pa.set(true, 0)
	pb.set(true, 0)
	a.send(1, &runtime.Directive{Directive: sim.Directive{Kind: sim.DirHeal, Tick: 7}})

	select {
	case <-got:
		t.Fatal("directive crossed a severed control link")
	case <-time.After(300 * time.Millisecond):
	}

	// Sender heals: the retry must now reach the still-partitioned
	// receiver (inbound frames are never policy-checked).
	pa.set(false, 0)
	select {
	case tick := <-got:
		if tick != 7 {
			t.Fatalf("delivered tick %d, want 7", tick)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry never landed after the sender healed")
	}

	// The receiver's ack is policed by its own (still severed) policy:
	// the sender keeps the frame pending.
	time.Sleep(200 * time.Millisecond)
	if a.pendingEmpty(1) {
		t.Fatal("ack crossed the receiver's severed side")
	}
	pb.set(false, 0)
	deadline := time.Now().Add(5 * time.Second)
	for !a.pendingEmpty(1) {
		if time.Now().After(deadline) {
			t.Fatal("ack never arrived after the receiver healed")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestLinkRejectsForgedFrames: a link with the wrong token cannot get a
// message delivered (or acked) — the authentication boundary.
func TestLinkRejectsForgedFrames(t *testing.T) {
	a, b, _, _ := linkPair(t, "right")
	// Rebuild a with a different token but the same shard table.
	forged := testLink(t, 0, "wrong", 13)
	forged.table.store(a.table.snapshot())
	got := make(chan int, 8)
	ackAll(b, got)

	forged.send(1, &runtime.Directive{Directive: sim.Directive{Kind: sim.DirMeasure, Tick: 1}})
	select {
	case <-got:
		t.Fatal("forged frame delivered")
	case <-time.After(300 * time.Millisecond):
	}

	a.send(1, &runtime.Directive{Directive: sim.Directive{Kind: sim.DirMeasure, Tick: 2}})
	select {
	case tick := <-got:
		if tick != 2 {
			t.Fatalf("delivered tick %d, want 2", tick)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("authentic frame not delivered")
	}
}

// TestLinkRejectsSplicedDatagram: a captured authentic frame cannot
// vouch for a forged one. The attack datagram hides a captured status
// cast inside an oversized first frame, where a reader that delimits
// frames by their clamped re-encoded length would find it, followed by
// a forged frame of the same length. Nothing of it may be delivered;
// the captured frame alone still is.
func TestLinkRejectsSplicedDatagram(t *testing.T) {
	l := testLink(t, 1, "k", 21)
	raw, err := net.Dial("udp", l.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	hdr := runtime.Frame{Kind: runtime.FrameEvent, Msg: netmodel.Message{From: 0, To: 1}}
	captured := mustSeal(newSealer([]byte("k")), hdr, &Status{Shard: 0, Tick: 1})
	c, err := runtime.DecodeFrame(captured)
	if err != nil {
		t.Fatal(err)
	}

	const clamp = 60000 // the frame codec's control payload bound
	first := runtime.EncodeFrame(hdr)
	binary.LittleEndian.PutUint16(first[len(first)-2:], uint16(clamp+len(captured)))
	first = append(first, make([]byte, clamp)...)
	first = append(first, captured...)
	forged := hdr
	forged.Ctrl = append(appendMsg(nil, &Status{Shard: 0, Tick: 999}), make([]byte, macLen)...)
	if len(forged.Ctrl) != len(c.Ctrl) {
		t.Fatalf("forged payload is %d bytes, captured %d", len(forged.Ctrl), len(c.Ctrl))
	}
	if dg := append(first, runtime.EncodeFrame(forged)...); len(dg) > 0 {
		if _, err := raw.Write(dg); err != nil {
			t.Skipf("a %d-byte datagram: %v", len(dg), err)
		}
	}
	select {
	case m := <-l.inbox:
		t.Fatalf("spliced datagram delivered %#v", m.P)
	case <-time.After(300 * time.Millisecond):
	}
	if st := l.tr.Stats(); st.Malformed != 1 {
		t.Fatalf("%d malformed datagrams counted, want the spliced one", st.Malformed)
	}

	if _, err := raw.Write(captured); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-l.inbox:
		if st, _ := m.P.(*Status); st == nil || st.Tick != 1 {
			t.Fatalf("delivered %#v, want the captured status", m.P)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the captured frame alone was not delivered")
	}
}

// TestOneSocketPerProcess: a node's address is the one socket of the
// process whose shard owns it. A coordinator link welcomes two joiner
// links; then every shard-0 node resolves to the coordinator link's
// address and each worker's nodes to that worker's hello address, and
// each welcome's table lists the coordinator and the joiner itself.
func TestOneSocketPerProcess(t *testing.T) {
	sc := scenario.PaperSingleSwitch().Scaled(30)
	const shards = 3
	coord := testLink(t, 0, "k", 1)
	type joined struct {
		w    *Welcome
		addr string
		err  error
	}
	joins := make(chan joined, shards-1)
	for i := 1; i < shards; i++ {
		j := testLink(t, -1, "k", int64(1+i))
		go func() {
			w, ack, err := awaitWelcome(JoinConfig{Starter: coord.addr, Token: "k"}, j, codecVersion)
			if err == nil {
				j.setShard(w.Shard)
				j.table.store(w.Addrs)
				ack()
			}
			joins <- joined{w, j.addr, err}
		}()
	}
	done := make(chan error, 1)
	go func() {
		_, err := awaitWorkers(Config{Workers: shards - 1}, sc, coord, shards)
		done <- err
	}()
	want := map[int]string{0: coord.addr}
	for pending := shards; pending > 0; pending-- {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case j := <-joins:
			if j.err != nil {
				t.Fatal(j.err)
			}
			if len(j.w.Addrs) <= j.w.Shard || j.w.Addrs[0] != coord.addr || j.w.Addrs[j.w.Shard] != j.addr {
				t.Fatalf("shard %d welcomed with table %q, want the coordinator %q and itself %q", j.w.Shard, j.w.Addrs, coord.addr, j.addr)
			}
			want[j.w.Shard] = j.addr
		}
	}

	r, err := runtime.FromScenario(sc, sim.Fast, runtime.Options{Transport: coord.tr})
	if err != nil {
		t.Fatal(err)
	}
	coord.routePeers(r)
	if err := r.StartShard(0, shards); err != nil {
		t.Fatal(err)
	}
	defer r.Abort()
	routes := peerRoutes{table: &coord.table, r: r}
	for id := 0; id < sc.Nodes; id++ {
		if got, ok := routes.Resolve(overlay.NodeID(id)); !ok || got != want[id%shards] {
			t.Fatalf("node %d resolves to %q (%v), want shard %d's %q", id, got, ok, id%shards, want[id%shards])
		}
	}
}

// TestSealOpenRoundTrip fuzzes the sealed-frame boundary: any single
// byte flip in a sealed control frame must fail authentication.
func TestSealOpenRoundTrip(t *testing.T) {
	s := newSealer([]byte("k"))
	data := mustSeal(s, runtime.Frame{
		Kind: runtime.FrameEvent,
		Msg:  netmodel.Message{From: 0, To: 1, Sent: 5},
	}, &Start{Workers: 2})

	f, opened := runtime.OpenControl(data, s)
	if !opened {
		t.Fatal("authentic frame rejected")
	}
	if f.Msg.To != 1 || f.Msg.Sent != 5 {
		t.Fatalf("opened header %+v, want the sealed one", f.Msg)
	}
	if m, err := decodeMsg(f.Ctrl); err != nil {
		t.Fatal(err)
	} else if st, _ := m.(*Start); st == nil || st.Workers != 2 {
		t.Fatalf("opened %#v, want the start message", m)
	}
	if _, opened := runtime.OpenControl(data, newSealer([]byte("j"))); opened {
		t.Fatal("frame opened under another token")
	}

	// The tag covers every byte before it and open parses nothing but
	// the authenticated bytes, so any byte flip must fail.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		mut := append([]byte(nil), data...)
		mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		if _, opened := runtime.OpenControl(mut, s); opened {
			t.Fatalf("flip %d survived authentication", i)
		}
	}
}

// TestDuplicateReackedBare: a sequenced message is acked once it is
// applied, and a duplicate of it — the sender's retry after a lost ack —
// is acked afresh once the original is applied (never before), without
// being delivered again. Every ack is bare: the answer to a message
// travels as a message of its own, and the link keeps no sealed ack. A
// raw socket stands in for the sending shard.
func TestDuplicateReackedBare(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("udp bind unavailable: %v", err)
	}
	defer conn.Close()
	l := testLink(t, 0, "k", 1)
	l.table.store([]string{l.addr, conn.LocalAddr().String()})
	to, err := net.ResolveUDPAddr("udp", l.addr)
	if err != nil {
		t.Fatal(err)
	}
	msg := mustSeal(l.sealer, runtime.Frame{Kind: runtime.FrameEvent,
		Msg: netmodel.Message{From: 1, Sent: 1}}, &S1End{Seg: 42, OK: true})
	send := func() {
		if _, err := conn.WriteToUDP(msg, to); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 64<<10)
	readAck := func(what string) {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		f, ok := runtime.OpenControl(buf[:n], l.sealer)
		if !ok || f.Kind != runtime.FrameAck || f.Msg.Seg != 1 || len(f.Ctrl) != 0 {
			t.Fatalf("%s: %+v (authentic %v), want a bare ack of seq 1", what, f, ok)
		}
	}

	send()
	var m inMsg
	select {
	case m = <-l.inbox:
	case <-time.After(5 * time.Second):
		t.Fatal("message never delivered")
	}
	if e, ok := m.P.(*S1End); !ok || e.Seg != 42 || m.From != 1 || m.Seq != 1 {
		t.Fatalf("delivered %+v, want the S1End of shard 1, seq 1", m)
	}
	send() // a duplicate before the original is applied: no ack yet
	conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if n, err := conn.Read(buf); err == nil {
		t.Fatalf("a duplicate of an unapplied message was answered (%d bytes)", n)
	}
	m.Ack()
	readAck("the ack")
	send()
	readAck("the duplicate's ack")
	select {
	case m := <-l.inbox:
		t.Fatalf("duplicate delivered again: %+v", m)
	case <-time.After(100 * time.Millisecond):
	}
}
