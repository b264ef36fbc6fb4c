package runtime

import (
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"gossipstream/internal/netmodel"
	"gossipstream/internal/overlay"
	"gossipstream/internal/segment"
)

// TestInboxSenderOrderAcrossOverflow: one sender's frames reach the
// reader in the order sent, across the channel/overflow boundary. The
// sender queues 100 frames before the reader starts (32 in the channel,
// 68 in the overflow), then another 100 while a slow reader drains, so
// frames enter the overflow, the refilled channel and the fast path
// concurrently.
func TestInboxSenderOrderAcrossOverflow(t *testing.T) {
	const first, total = 100, 200
	tr := NewChanTransport(5)
	defer tr.Close()
	a, _ := tr.Open(1)
	b, _ := tr.Open(2)
	send := func(i int) { a.Send(Frame{Kind: FrameRequest, Msg: netmodel.Message{To: 2, Seg: segment.ID(i)}}) }
	for i := 0; i < first; i++ {
		send(i)
	}
	if n := queuedFrames(b); n != first {
		t.Fatalf("%d frames queued before the reader started, want %d", n, first)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := first; i < total; i++ {
			send(i)
			if i%8 == 0 {
				goruntime.Gosched()
			}
		}
	}()
	for want := 0; want < total; want++ {
		f := recvOne(t, b, "the next frame in order")
		if f.Msg.Seg != segment.ID(want) {
			t.Fatalf("received frame %d, want %d: one sender's order broke", f.Msg.Seg, want)
		}
		if want%4 == 0 {
			time.Sleep(20 * time.Microsecond) // a reader slower than the sender
		}
	}
	<-done
	if st := tr.Stats(); st.InboxDropped != 0 {
		t.Fatalf("%d frames dropped below the inbox bound", st.InboxDropped)
	}
	if n := queuedFrames(b); n != 0 {
		t.Fatalf("%d frames left after all %d were received", n, total)
	}
}

// TestInboxSpillReachesAWaitingReader: a receiver may hold the channel
// from a recv call made before the overflow began, and wait on it after
// draining it. The next frame to take the overflow path must then move
// the overflow onto the channel, oldest first, or that receiver would wait
// with frames queued. The test plays the receiver by reading the channel
// directly, without calling recv.
func TestInboxSpillReachesAWaitingReader(t *testing.T) {
	q := newInbox()
	const spilled = 5
	for i := 0; i < inboxChan+spilled; i++ {
		q.put(Frame{Msg: netmodel.Message{Seg: segment.ID(i)}})
	}
	for i := 0; i < inboxChan; i++ {
		<-q.ch
	}
	q.put(Frame{Msg: netmodel.Message{Seg: inboxChan + spilled}})
	if n := len(q.ch); n != spilled+1 {
		t.Fatalf("channel holds %d frames after the spill, want %d", n, spilled+1)
	}
	for i := inboxChan; i <= inboxChan+spilled; i++ {
		if f := <-q.ch; f.Msg.Seg != segment.ID(i) {
			t.Fatalf("received frame %d, want %d", f.Msg.Seg, i)
		}
	}
}

// TestInboxConcurrentSenders: eight senders, each on its own endpoint
// and goroutine, against one reader. Every frame arrives exactly once and
// in its sender's order. The senders queue 480 frames in all, under
// inboxCap, so nothing may drop however slowly the reader runs.
func TestInboxConcurrentSenders(t *testing.T) {
	const senders, perSender = 8, 60
	tr := NewChanTransport(6)
	defer tr.Close()
	dst, _ := tr.Open(100)
	src := make([]Endpoint, senders)
	for i := range src {
		src[i], _ = tr.Open(overlay.NodeID(1 + i))
	}
	var wg sync.WaitGroup
	for i := range src {
		wg.Add(1)
		go func(ep Endpoint) {
			defer wg.Done()
			for seq := 0; seq < perSender; seq++ {
				ep.Send(Frame{Kind: FrameData, Msg: netmodel.Message{To: 100, Seg: segment.ID(seq)}})
			}
		}(src[i])
	}
	next := make([]segment.ID, senders) // next sequence number expected from each sender
	for got := 0; got < senders*perSender; got++ {
		f := recvOne(t, dst, "a sender's next frame")
		i := int(f.Msg.From) - 1
		if i < 0 || i >= senders {
			t.Fatalf("frame from unknown node %d", f.Msg.From)
		}
		if f.Msg.Seg != next[i] {
			t.Fatalf("sender %d: received frame %d, want %d", f.Msg.From, f.Msg.Seg, next[i])
		}
		next[i]++
		if got%16 == 0 {
			time.Sleep(10 * time.Microsecond)
		}
	}
	wg.Wait()
	if n := queuedFrames(dst); n != 0 {
		t.Fatalf("%d frames beyond the %d sent", n, senders*perSender)
	}
	if st := tr.Stats(); st.InboxDropped != 0 || st.DataDelivered != senders*perSender {
		t.Fatalf("stats %+v, want %d delivered and none dropped", st, senders*perSender)
	}
}

// TestInboxFootprint pins what an idle channel-transport endpoint
// retains: the 32-frame channel and its bookkeeping, not room for
// inboxCap frames (512 × 160 B = 80 KB).
func TestInboxFootprint(t *testing.T) {
	const n, perEndpoint = 1000, 8 << 10
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	tr := NewChanTransport(7)
	eps := make([]Endpoint, n)
	for i := range eps {
		eps[i], _ = tr.Open(overlay.NodeID(i))
	}
	goruntime.GC()
	goruntime.ReadMemStats(&after)
	goruntime.KeepAlive(eps)
	tr.Close()
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("%d bytes retained per open endpoint", per)
	if per > perEndpoint {
		t.Fatalf("an open endpoint retains %d bytes, want at most %d", per, perEndpoint)
	}
}
