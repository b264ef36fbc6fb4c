package runtime

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"gossipstream/internal/netmodel"
	"gossipstream/internal/overlay"
	"gossipstream/internal/segment"
)

// recvOne pops a frame from the endpoint with a deadline.
func recvOne(t *testing.T, ep Endpoint, what string) Frame {
	t.Helper()
	select {
	case f := <-ep.Recv():
		return f
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return Frame{}
	}
}

func TestChanTransportDelivery(t *testing.T) {
	tr := NewChanTransport(1)
	defer tr.Close()
	a, _ := tr.Open(1)
	b, _ := tr.Open(2)

	a.Send(Frame{Kind: FrameData, Msg: netmodel.Message{To: 2, Seg: 7}})
	f := recvOne(t, b, "data frame")
	if f.Kind != FrameData || f.Msg.From != 1 || f.Msg.Seg != 7 {
		t.Fatalf("got %+v", f)
	}
	st := tr.Stats()
	if st.DataSent != 1 || st.DataDelivered != 1 || st.DataLost != 0 {
		t.Fatalf("stats %+v", st)
	}

	// A detached destination swallows frames without error.
	b.Close()
	a.Send(Frame{Kind: FrameData, Msg: netmodel.Message{To: 2, Seg: 8}})
	if st := tr.Stats(); st.DataDelivered != 1 {
		t.Fatalf("delivered to closed endpoint: %+v", st)
	}
}

func TestChanTransportPolicyLossAndSever(t *testing.T) {
	tr := NewChanTransport(2)
	defer tr.Close()
	a, _ := tr.Open(1)
	b, _ := tr.Open(2)

	// Total loss: data frames die, control frames (maps) still flow —
	// the simulator's convention (loss draws cover granted segments,
	// not the map exchange).
	tr.SetPolicy(netmodel.Flat{Loss: 0.999999999})
	a.Send(Frame{Kind: FrameData, Msg: netmodel.Message{To: 2, Seg: 1}})
	a.Send(Frame{Kind: FrameMap, Msg: netmodel.Message{To: 2}})
	if f := recvOne(t, b, "map frame"); f.Kind != FrameMap {
		t.Fatalf("expected the map to survive total data loss, got %s", f.Kind)
	}
	if st := tr.Stats(); st.DataLost != 1 || st.DataDelivered != 0 {
		t.Fatalf("loss stats %+v", st)
	}

	// A partition severs everything, maps included, in both directions.
	model := netmodel.New(netmodel.Config{}, 1)
	model.Partition(0.5, 12345)
	sideA, sideB := overlay.NodeID(-1), overlay.NodeID(-1)
	for id := overlay.NodeID(1); id < 100; id++ {
		if model.Side(id) == 0 && sideA < 0 {
			sideA = id
		}
		if model.Side(id) == 1 && sideB < 0 {
			sideB = id
		}
	}
	tr.SetPolicy(model)
	x, _ := tr.Open(sideA)
	y, _ := tr.Open(sideB)
	x.Send(Frame{Kind: FrameMap, Msg: netmodel.Message{To: sideB}})
	x.Send(Frame{Kind: FrameData, Msg: netmodel.Message{To: sideB, Seg: 2}})
	select {
	case f := <-y.Recv():
		t.Fatalf("frame %s crossed an active partition", f.Kind)
	case <-time.After(50 * time.Millisecond):
	}
	model.Heal()
	x.Send(Frame{Kind: FrameData, Msg: netmodel.Message{To: sideB, Seg: 3}})
	if f := recvOne(t, y, "post-heal data"); f.Msg.Seg != 3 {
		t.Fatalf("got %+v", f)
	}
}

func TestChanTransportShapedDelay(t *testing.T) {
	tr := NewChanTransport(3)
	defer tr.Close()
	a, _ := tr.Open(1)
	b, _ := tr.Open(2)
	// 40 scenario-ms links at 1 wall-ms per scenario-ms: the frame must
	// arrive delayed, carrying its shaped delay on ArrivalMS.
	tr.SetPolicy(netmodel.Flat{Delay: 40})
	tr.SetTick(0, 1)
	start := time.Now()
	a.Send(Frame{Kind: FrameData, Msg: netmodel.Message{To: 2, Seg: 9}})
	f := recvOne(t, b, "delayed data")
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("shaped frame arrived after %v, want >= ~40ms", elapsed)
	}
	if f.Msg.ArrivalMS != 40 {
		t.Fatalf("ArrivalMS = %v, want 40", f.Msg.ArrivalMS)
	}
	// The timer goroutine counts the delivery after the inbox send, so
	// the receiver can get here first.
	st := tr.Stats()
	for deadline := time.Now().Add(time.Second); st.DelayScenarioMS != 40 && time.Now().Before(deadline); st = tr.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.DelayScenarioMS != 40 {
		t.Fatalf("delay sum %v, want 40", st.DelayScenarioMS)
	}
}

func TestUDPTransportLoopback(t *testing.T) {
	tr := NewUDPTransport(4)
	a, err := tr.Open(1)
	if err != nil {
		t.Skipf("udp bind unavailable: %v", err)
	}
	defer tr.Close()
	b, _ := tr.Open(2)

	a.Send(Frame{Kind: FrameRequest, Msg: netmodel.Message{To: 2, Seg: 55, Sent: 3}})
	f := recvOne(t, b, "udp request")
	if f.Kind != FrameRequest || f.Msg.From != 1 || f.Msg.Seg != 55 || f.Msg.Sent != 3 {
		t.Fatalf("got %+v", f)
	}
	b.Send(Frame{Kind: FrameData, Msg: netmodel.Message{To: 1, Seg: 55}})
	if f := recvOne(t, a, "udp data"); f.Kind != FrameData || f.Msg.Seg != 55 {
		t.Fatalf("got %+v", f)
	}
	if st := tr.Stats(); st.DataSent != 1 || st.DataDelivered != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestUDPSendWithoutFlushDelivers is the ping-pong contract callers
// outside the peer loop rely on: Send puts the frame on the wire at
// once, with no Flush to follow.
func TestUDPSendWithoutFlushDelivers(t *testing.T) {
	tr := NewUDPTransport(5)
	a, err := tr.Open(1)
	if err != nil {
		t.Skipf("udp bind unavailable: %v", err)
	}
	defer tr.Close()
	b, _ := tr.Open(2)
	for i := 0; i < 200; i++ {
		a.Send(Frame{Kind: FrameData, Msg: netmodel.Message{To: 2, Seg: segment.ID(i)}})
		if f := recvOne(t, b, "sent frame"); f.Msg.Seg != segment.ID(i) {
			t.Fatalf("ping %d: got %+v", i, f)
		}
	}
	if st := tr.Stats(); st.Datagrams != 200 || st.Frames != 200 {
		t.Fatalf("200 sends wrote %d datagrams carrying %d frames", st.Datagrams, st.Frames)
	}
}

// rawBook resolves node ids to raw sockets, so a test can read the
// datagrams a transport writes: an id it does not list resolves to the
// socket listed under 0.
type rawBook map[overlay.NodeID]string

func (b rawBook) Resolve(id overlay.NodeID) (string, bool) {
	if a, ok := b[id]; ok {
		return a, true
	}
	a, ok := b[0]
	return a, ok
}

// listenRaw binds a raw loopback socket the test reads datagrams from.
func listenRaw(t *testing.T) *net.UDPConn {
	t.Helper()
	raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("udp bind unavailable: %v", err)
	}
	t.Cleanup(func() { raw.Close() })
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	return raw
}

// openRaw attaches node 1 to a UDP transport whose every other
// destination is the returned raw socket.
func openRaw(t *testing.T, tr *UDPTransport) (Endpoint, *net.UDPConn) {
	t.Helper()
	raw := listenRaw(t)
	tr.SetAddrBook(rawBook{0: raw.LocalAddr().String()})
	a, err := tr.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	return a, raw
}

// TestUDPSingleFrameDatagramIsEncodeFrame: one frame sent alone goes on
// the wire as exactly EncodeFrame's bytes.
func TestUDPSingleFrameDatagramIsEncodeFrame(t *testing.T) {
	tr := NewUDPTransport(6)
	defer tr.Close()
	a, raw := openRaw(t, tr)
	f := Frame{Kind: FrameRequest, ReReq: true, Msg: netmodel.Message{To: 2, Seg: 77, Sent: 4}}
	a.Send(f)
	buf := make([]byte, 2048)
	n, _, err := raw.ReadFromUDP(buf)
	if err != nil {
		t.Fatal(err)
	}
	f.Msg.From = 1
	if want := EncodeFrame(f); !bytes.Equal(buf[:n], want) {
		t.Fatalf("datagram %x, EncodeFrame %x", buf[:n], want)
	}
}

// TestUDPDatagramBudget pins the coalescing rule: frames for nodes
// behind one address share a datagram, frames for nodes behind two
// addresses travel apart, and no datagram goes over the budget. Nodes 2
// and 3 sit behind socket A, node 4 behind socket B; 60 requests to 2
// with a map to 3 among them arrive at A complete and in order, in two
// datagrams (the budget forces the first out before Flush), and the map
// to 4 arrives at B alone.
func TestUDPDatagramBudget(t *testing.T) {
	tr := NewUDPTransport(7)
	defer tr.Close()
	rawA, rawB := listenRaw(t), listenRaw(t)
	tr.SetAddrBook(rawBook{2: rawA.LocalAddr().String(), 3: rawA.LocalAddr().String(), 4: rawB.LocalAddr().String()})
	a, err := tr.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if i == 30 {
			a.Queue(Frame{Kind: FrameMap, Msg: netmodel.Message{To: 3}, MapImg: make([]byte, 80)})
		}
		a.Queue(Frame{Kind: FrameRequest, Msg: netmodel.Message{To: 2, Seg: segment.ID(i)}})
	}
	a.Queue(Frame{Kind: FrameMap, Msg: netmodel.Message{To: 4}, MapImg: make([]byte, 80)})
	if st := tr.Stats(); st.Datagrams != 1 {
		t.Fatalf("before Flush: %d datagrams written, want the one the budget forced out", st.Datagrams)
	}
	a.Flush()
	a.Flush() // nothing pending: writes nothing
	st := tr.Stats()
	if st.Datagrams != 3 || st.Frames != 62 {
		t.Fatalf("wrote %d datagrams carrying %d frames, want 3 and 62", st.Datagrams, st.Frames)
	}
	buf := make([]byte, 4096)
	read := func(raw *net.UDPConn, what string) []Frame {
		t.Helper()
		n, _, err := raw.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if n > datagramBudget {
			t.Errorf("%s is %d bytes, budget %d", what, n, datagramBudget)
		}
		frames, _, err := decodeDatagram(buf[:n], nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return frames
	}
	next, shared := segment.ID(0), false
	for d := 0; d < 2; d++ {
		frames := read(rawA, fmt.Sprintf("datagram %d at A", d))
		for _, f := range frames {
			switch {
			case f.Kind == FrameMap && f.Msg.To == 3 && !shared:
				shared = len(frames) > 1
				if !shared {
					t.Fatalf("datagram %d at A: the map to 3 travelled alone", d)
				}
			case f.Kind == FrameRequest && f.Msg.To == 2 && f.Msg.Seg == next:
				next++
			default:
				t.Fatalf("datagram %d at A: unexpected %s to %d seg %d (next request %d)", d, f.Kind, f.Msg.To, f.Msg.Seg, next)
			}
		}
	}
	if next != 60 || !shared {
		t.Fatalf("A received %d requests, map to 3 shared a datagram: %v; want 60 and true", next, shared)
	}
	if frames := read(rawB, "datagram at B"); len(frames) != 1 || frames[0].Kind != FrameMap || frames[0].Msg.To != 4 {
		t.Fatalf("B received %+v, want the map to 4 alone", frames)
	}
}

// TestUDPOneSocketDemux: nodes opened on one transport share its one
// socket, and the reader hands each frame to the inbox Msg.To names. A
// burst from a fourth node to the other three is one datagram reaching
// every inbox in order; a closed node's frames evaporate while its
// siblings still receive, uncounted; opening the id again rebinds a
// fresh inbox.
func TestUDPOneSocketDemux(t *testing.T) {
	tr := NewUDPTransport(10)
	defer tr.Close()
	addr, err := tr.Bind("")
	if err != nil {
		t.Skipf("udp bind unavailable: %v", err)
	}
	// The book resolves every node to this socket, as a cluster's shard
	// table resolves the nodes a process owns: frames for a closed node
	// still reach the socket.
	tr.SetAddrBook(rawBook{0: addr})
	eps := make(map[overlay.NodeID]Endpoint)
	for _, id := range []overlay.NodeID{1, 2, 3, 4} {
		ep, err := tr.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		eps[id] = ep
	}
	const k = 10
	burst := func(round int) {
		for i := 0; i < k; i++ {
			for _, to := range []overlay.NodeID{1, 2, 3} {
				eps[4].Queue(Frame{Kind: FrameRequest, Msg: netmodel.Message{To: to, Seg: segment.ID(i), Sent: round}})
			}
		}
		eps[4].Flush()
	}
	expect := func(round int, to overlay.NodeID) {
		t.Helper()
		for i := 0; i < k; i++ {
			f := recvOne(t, eps[to], fmt.Sprintf("round %d frame %d to %d", round, i, to))
			if f.Kind != FrameRequest || f.Msg.From != 4 || f.Msg.To != to || f.Msg.Seg != segment.ID(i) || f.Msg.Sent != round {
				t.Fatalf("round %d: node %d got %+v, want request %d from 4", round, to, f, i)
			}
		}
	}

	burst(0)
	if st := tr.Stats(); st.Datagrams != 1 || st.Frames != 3*k {
		t.Fatalf("one burst to three local nodes wrote %d datagrams carrying %d frames, want 1 and %d", st.Datagrams, st.Frames, 3*k)
	}
	for _, to := range []overlay.NodeID{1, 2, 3} {
		expect(0, to)
	}

	closed := eps[2]
	closed.Close()
	burst(1)
	expect(1, 1)
	expect(1, 3) // node 3's frames follow node 2's in the one datagram
	if n := queuedFrames(closed); n != 0 {
		t.Fatalf("closed node 2 still received %d frames", n)
	}

	ep, err := tr.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	eps[2] = ep
	burst(2)
	for _, to := range []overlay.NodeID{1, 2, 3} {
		expect(2, to)
	}
	if n := queuedFrames(closed); n != 0 {
		t.Fatalf("the closed endpoint received %d frames after its id was reopened", n)
	}
	if st := tr.Stats(); st.Datagrams != 3 || st.Frames != 9*k || st.InboxDropped != 0 || st.Malformed != 0 {
		t.Fatalf("three bursts: stats %+v, want 3 datagrams carrying %d frames, nothing dropped", st, 9*k)
	}
}

// TestUDPControlDemux: control frames share the socket with peer frames
// but never an inbox. A control frame addressed to an attached node's id
// (a cluster shard anchor collides with node ids by design) reaches only
// the control handler; a peer frame to that node reaches only its inbox.
func TestUDPControlDemux(t *testing.T) {
	tr := NewUDPTransport(12)
	defer tr.Close()
	node0, err := tr.Open(0)
	if err != nil {
		t.Skipf("udp bind unavailable: %v", err)
	}
	ctrl := make(chan []byte, 4)
	tr.SetControl(func(wire []byte) { ctrl <- append([]byte(nil), wire...) })
	addr, err := tr.Bind("")
	if err != nil {
		t.Fatal(err)
	}
	quiet := func() {
		t.Helper()
		select {
		case w := <-ctrl:
			t.Fatalf("control handler got %x", w)
		case f := <-node0.Recv():
			t.Fatalf("node 0 got %+v", f)
		case <-time.After(100 * time.Millisecond):
		}
	}
	// wantCtrl waits for the handler's next frame: exactly want's bytes
	// (quiet, afterwards, shows no control frame reached an inbox).
	wantCtrl := func(want []byte) {
		t.Helper()
		select {
		case w := <-ctrl:
			if !bytes.Equal(w, want) {
				t.Fatalf("control handler got wire bytes %x, want %x", w, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("control frame never reached the handler")
		}
	}

	ev := EncodeFrame(Frame{Kind: FrameEvent, Msg: netmodel.Message{From: 1, To: 0, Sent: 3}, Ctrl: []byte("directive")})
	if err := tr.SendControl(ev, addr); err != nil {
		t.Fatal(err)
	}
	if err := tr.SendControl(EncodeFrame(Frame{Kind: FrameMap}), addr); err == nil {
		t.Fatal("SendControl accepted a map frame")
	}
	wantCtrl(ev)
	quiet()

	// One datagram of control, peer and control frames: the handler gets
	// each control frame's own bytes, as the decoder delimited them.
	raw, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	ack := EncodeFrame(Frame{Kind: FrameAck, Msg: netmodel.Message{From: 2, Seg: 7}, Ctrl: []byte("tag")})
	dg := AppendFrame(append([]byte(nil), ev...), Frame{Kind: FrameMap, Msg: netmodel.Message{To: 0}, MapImg: make([]byte, 8)})
	if _, err := raw.Write(append(dg, ack...)); err != nil {
		t.Fatal(err)
	}
	wantCtrl(ev)
	wantCtrl(ack)
	select {
	case f := <-node0.Recv():
		if f.Kind != FrameMap {
			t.Fatalf("node 0 got %+v", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the datagram's map frame never reached node 0")
	}
	quiet()
	quiet()

	node0.Send(Frame{Kind: FrameMap, Msg: netmodel.Message{To: 0}, MapImg: make([]byte, 80)})
	select {
	case f := <-node0.Recv():
		if f.Kind != FrameMap || f.Msg.To != 0 {
			t.Fatalf("node 0 got %+v", f)
		}
	case f := <-ctrl:
		t.Fatalf("map frame reached the control handler: %+v", f)
	case <-time.After(5 * time.Second):
		t.Fatal("map frame never reached node 0")
	}
	quiet()
	if st := tr.Stats(); st.Datagrams != 2 || st.Frames != 2 || st.Malformed != 0 {
		t.Fatalf("stats %+v, want the control and the map datagram counted alike", st)
	}
}

// TestUDPShapedFramesTravelAlone: under a delay+loss policy queued data
// frames bypass the outbox — each lands from its own timer with its own
// loss draw, as its own datagram — and the data ledger balances.
func TestUDPShapedFramesTravelAlone(t *testing.T) {
	tr := NewUDPTransport(8)
	a, err := tr.Open(1)
	if err != nil {
		t.Skipf("udp bind unavailable: %v", err)
	}
	defer tr.Close()
	b, _ := tr.Open(2)
	tr.SetPolicy(netmodel.Flat{Delay: 20, Loss: 0.3})
	tr.SetTick(0, 1)
	const n = 200
	for i := 0; i < n; i++ {
		a.Queue(Frame{Kind: FrameData, Msg: netmodel.Message{To: 2, Seg: segment.ID(i)}})
	}
	if st := tr.Stats(); st.Datagrams != 0 {
		t.Fatalf("%d datagrams written before any delay elapsed", st.Datagrams)
	}
	a.Flush() // the outbox is empty: delayed frames never joined it
	got := 0
	deadline := time.After(10 * time.Second)
	poll := time.NewTicker(5 * time.Millisecond) // a lost frame wakes nobody
	defer poll.Stop()
	for st := tr.Stats(); st.DataDelivered+st.DataLost < n; st = tr.Stats() {
		select {
		case f := <-b.Recv():
			if f.Kind != FrameData || f.Msg.ArrivalMS != 20 {
				t.Fatalf("got %+v", f)
			}
			got++
		case <-poll.C:
		case <-deadline:
			t.Fatalf("ledger never balanced: %+v", st)
		}
	}
	st := tr.Stats()
	if st.DataSent != n || st.DataSent != st.DataDelivered+st.DataLost {
		t.Fatalf("ledger %+v", st)
	}
	if st.DataLost < n/10 || st.DataDelivered < n/2 {
		t.Fatalf("30%% loss drew %d lost, %d delivered of %d", st.DataLost, st.DataDelivered, n)
	}
	if st.Datagrams != st.DataDelivered || st.Frames != st.Datagrams {
		t.Fatalf("%d delivered frames travelled in %d datagrams carrying %d frames, want one each",
			st.DataDelivered, st.Datagrams, st.Frames)
	}
	for ; int64(got) < st.DataDelivered; got++ {
		recvOne(t, b, "delivered data frame")
	}
}

// TestChanQueueDeliversAtOnce: the channel transport holds nothing back.
func TestChanQueueDeliversAtOnce(t *testing.T) {
	tr := NewChanTransport(9)
	defer tr.Close()
	a, _ := tr.Open(1)
	b, _ := tr.Open(2)
	a.Queue(Frame{Kind: FrameRequest, Msg: netmodel.Message{To: 2, Seg: 5}})
	select {
	case f := <-b.Recv():
		if f.Msg.Seg != 5 || f.Msg.From != 1 {
			t.Fatalf("got %+v", f)
		}
	default:
		t.Fatal("queued frame not in the inbox before Flush")
	}
	a.Flush()
}

// TestInboxOverflowCounts: frames that reach a full inbox are dropped,
// like datagrams, and both transports count them in InboxDropped.
// Node 2 never reads; node 1 sends it twice its inbox capacity. On the
// channel transport every frame lands synchronously, so the inbox holds
// exactly inboxCap of them, channel and overflow, and the other inboxCap
// are counted; over UDP the kernel may drop some first.
func TestInboxOverflowCounts(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   Transport
	}{{"chan", NewChanTransport(4)}, {"udp", NewUDPTransport(4)}} {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.tr
			defer tr.Close()
			a, err := tr.Open(1)
			if err != nil {
				t.Skipf("open: %v", err)
			}
			b, err := tr.Open(2)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2*inboxCap; i++ {
				a.Queue(Frame{Kind: FrameRequest, Msg: netmodel.Message{To: 2, Seg: segment.ID(i)}})
			}
			a.Flush()
			if tc.name == "chan" {
				if n, st := queuedFrames(b), tr.Stats(); n != inboxCap || st.InboxDropped != inboxCap {
					t.Fatalf("%d frames into a %d-frame inbox: %d queued, stats %+v, want %d queued and %d dropped",
						2*inboxCap, inboxCap, n, st, inboxCap, inboxCap)
				}
				return
			}
			deadline := time.Now().Add(5 * time.Second)
			for tr.Stats().InboxDropped == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%d frames into a %d-frame inbox: stats %+v, want InboxDropped > 0", 2*inboxCap, inboxCap, tr.Stats())
				}
				time.Sleep(10 * time.Millisecond)
			}
			if n := queuedFrames(b); n > inboxCap {
				t.Fatalf("inbox holds %d frames, past its %d-frame bound", n, inboxCap)
			}
		})
	}
}
