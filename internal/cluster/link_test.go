package cluster

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"gossipstream/internal/netmodel"
	"gossipstream/internal/overlay"
	"gossipstream/internal/runtime"
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

// linkPair wires two links (shards 0 and 1) with each other's control
// addresses, each behind its own policy object — like two processes
// that each applied the same scenario directives to their own model.
func linkPair(t *testing.T, token string) (*link, *link, *testPolicy, *testPolicy) {
	t.Helper()
	bookA, bookB := NewDirectory(1), NewDirectory(2)
	a, err := newLink("", 0, token, bookA, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newLink("", 1, token, bookB, 12)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.close(); b.close() })
	bookA.Publish(CtrlIDBase+1, b.addr())
	bookB.Publish(CtrlIDBase+0, a.addr())
	pa, pb := &testPolicy{}, &testPolicy{}
	a.setPolicy(func() netmodel.LinkPolicy { return pa }, func() int { return 0 }, 1)
	b.setPolicy(func() netmodel.LinkPolicy { return pb }, func() int { return 0 }, 1)
	return a, b, pa, pb
}

// ackAll drains a link's inbox on a goroutine, acking every sequenced
// message and recording delivered directive ticks in order.
func ackAll(l *link, into chan<- int) {
	go func() {
		for m := range l.inbox {
			if m.P.Kind == "directive" && m.P.Dir != nil {
				into <- m.P.Dir.Tick
			}
			if m.Ack != nil {
				m.Ack(nil)
			}
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
		a.send(1, &Payload{Kind: "directive", Dir: &runtime.Directive{Directive: sim.Directive{Kind: sim.DirMeasure, Tick: i}}})
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
	a.send(1, &Payload{Kind: "directive", Dir: &runtime.Directive{Directive: sim.Directive{Kind: sim.DirHeal, Tick: 7}}})

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
	// Rebuild a with a different token but the same directory wiring.
	forged, err := newLink("", 0, "wrong", a.book, 13)
	if err != nil {
		t.Fatal(err)
	}
	defer forged.close()
	got := make(chan int, 8)
	ackAll(b, got)

	forged.send(1, &Payload{Kind: "directive", Dir: &runtime.Directive{Directive: sim.Directive{Kind: sim.DirMeasure, Tick: 1}}})
	select {
	case <-got:
		t.Fatal("forged frame delivered")
	case <-time.After(300 * time.Millisecond):
	}

	a.send(1, &Payload{Kind: "directive", Dir: &runtime.Directive{Directive: sim.Directive{Kind: sim.DirMeasure, Tick: 2}}})
	select {
	case tick := <-got:
		if tick != 2 {
			t.Fatalf("delivered tick %d, want 2", tick)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("authentic frame not delivered")
	}
}

// TestDirectoryMergeAndRotation covers the address book's gossip
// mechanics: newest version wins, rotation cursors cover the whole
// directory, and published rebinds outrun stale entries.
func TestDirectoryMergeAndRotation(t *testing.T) {
	d := NewDirectory(1)
	for i := 0; i < 10; i++ {
		d.Publish(overlay.NodeID(i), "127.0.0.1:1000")
	}
	if d.Len() != 10 {
		t.Fatalf("Len = %d, want 10", d.Len())
	}
	// Stale gossip must not overwrite a newer local rebind.
	d.Publish(3, "127.0.0.1:2000") // ver 2
	d.MergeWire([]runtime.DirEntry{{ID: 3, Ver: 1, Addr: "127.0.0.1:9999"}})
	if addr, _ := d.Resolve(3); addr != "127.0.0.1:2000" {
		t.Fatalf("stale merge won: %s", addr)
	}
	// Newer gossip wins.
	d.MergeWire([]runtime.DirEntry{{ID: 3, Ver: 9, Addr: "127.0.0.1:3000"}})
	if addr, _ := d.Resolve(3); addr != "127.0.0.1:3000" {
		t.Fatalf("newer merge lost: %s", addr)
	}
	// Rotation covers every entry across consecutive batches.
	seen := map[overlay.NodeID]bool{}
	for i := 0; i < 4; i++ {
		for _, e := range d.DeltaBatch(3) {
			seen[e.ID] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("rotation covered %d of 10 entries", len(seen))
	}
	// Piggyback rotates independently and respects its bound.
	if got := len(d.Piggyback(4)); got != 4 {
		t.Fatalf("piggyback returned %d entries, want 4", got)
	}
}

// TestSealOpenRoundTrip fuzzes the sealed-frame boundary: any single
// byte flip in a sealed control frame must fail authentication.
func TestSealOpenRoundTrip(t *testing.T) {
	token := []byte("k")
	f := runtime.Frame{
		Kind: runtime.FrameEvent,
		Msg:  netmodel.Message{From: 0, To: 1, Sent: 5},
		Ctrl: encodePayload(&Payload{Kind: "start", Start: &Start{Workers: 2}}),
	}
	seal(&f, token)
	data := runtime.EncodeFrame(f)

	ok, err := runtime.DecodeFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if !open(&ok, token) {
		t.Fatal("authentic frame rejected")
	}
	if _, err := decodePayload(ok.Ctrl); err != nil {
		t.Fatal(err)
	}

	// The codec is strict (decode(x) re-encodes to x), so a frame that
	// decodes after any byte flip carries a different encoding than the
	// tag was computed over — authentication must fail every time.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		mut := append([]byte(nil), data...)
		mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		g, err := runtime.DecodeFrame(mut)
		if err != nil {
			continue // the codec already rejected it
		}
		if g.Kind.Control() && open(&g, token) {
			t.Fatalf("flip %d survived authentication", i)
		}
	}
}
