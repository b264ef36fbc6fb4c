package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gossipstream/internal/netmodel"
	"gossipstream/internal/overlay"
	"gossipstream/internal/segment"
)

// TestQueueAllocatesNothing pins the cost of the live frame path: a
// frame the policy does not delay is queued without a heap allocation —
// on the channel transport with no policy and with a zero netmodel.Flat
// (the shaped branch, nothing delayed), and into the UDP transport's
// outbox. Only a delayed frame is copied to the heap, for its timer.
func TestQueueAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for its own bookkeeping")
	}
	frames := []Frame{
		{Kind: FrameMap, MapImg: make([]byte, 80), MaxSeen: 600, Rate: 10,
			Sessions: []SessionInfo{{Source: 0, Begin: 0, End: segment.None}}},
		{Kind: FrameRequest, Msg: netmodel.Message{Seg: 7}},
		{Kind: FrameDeny, Msg: netmodel.Message{Seg: 7}},
		{Kind: FrameData, Msg: netmodel.Message{Seg: 7}},
	}
	for _, pol := range []struct {
		name string
		p    netmodel.LinkPolicy
	}{{"no", nil}, {"zero Flat", netmodel.Flat{}}} {
		tr := NewChanTransport(1)
		tr.SetPolicy(pol.p)
		a, _ := tr.Open(1)
		b, _ := tr.Open(2)
		for _, f := range frames {
			f.Msg.To = 2
			if n := testing.AllocsPerRun(200, func() { a.Queue(f); <-b.Recv() }); n != 0 {
				t.Errorf("channel transport, %s policy: a %s frame costs %.1f allocations", pol.name, f.Kind, n)
			}
		}
		tr.Close()
	}
	tr := NewUDPTransport(1)
	defer tr.Close()
	tr.SetAddrBook(rawBook{0: listenRaw(t).LocalAddr().String()})
	a, err := tr.Open(1)
	if err != nil {
		t.Skipf("udp bind unavailable: %v", err)
	}
	for _, f := range frames {
		f.Msg.To = 2
		if n := testing.AllocsPerRun(200, func() { a.Queue(f) }); n != 0 {
			t.Errorf("udp outbox: a %s frame costs %.1f allocations", f.Kind, n)
		}
	}
	a.Flush()
}

// blockOdd severs every link out of an odd-numbered node and delays the
// rest like its Flat.
type blockOdd struct{ netmodel.Flat }

func (blockOdd) Blocked(a, b overlay.NodeID) bool { return a%2 == 1 }

// TestShaperPolicyAndCloseRace: the shaper reads its policy and stopped
// flag without a lock, and that must not let a frame slip past either.
// Eight goroutines send data (delayed under a policy) and request frames
// (never delayed) while the policy goes from none to a delaying Flat to
// one that severs the odd senders' links, and then the transport closes.
// No frame from an odd sender lands if it was queued after SetPolicy
// returned or its delay ran past that instant; no frame lands if it was
// queued after Close returned or its delay ran past it; and no inbox
// grows once Close has returned. The verdicts compare wall instants that
// are lower bounds (a timer never fires early), so load cannot fail
// them. Every sender stays under the inbox capacity, so an inbox's
// queued frames (channel and overflow) count its landings.
func TestShaperPolicyAndCloseRace(t *testing.T) {
	const (
		senders   = 8
		perSender = inboxCap - 12
		delayMS   = 4
		delay     = delayMS * time.Millisecond // wall delay: SetTick never runs, one wall ms per scenario ms
	)
	for _, tc := range []struct {
		name string
		tr   Transport
	}{{"chan", NewChanTransport(3)}, {"udp", NewUDPTransport(3)}} {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.tr
			defer tr.Close()
			src, dst := make([]Endpoint, senders), make([]Endpoint, senders)
			for i := range src {
				var err error
				if src[i], err = tr.Open(overlay.NodeID(1 + i)); err != nil {
					t.Skipf("open: %v", err)
				}
				if dst[i], err = tr.Open(overlay.NodeID(101 + i)); err != nil {
					t.Skipf("open: %v", err)
				}
			}
			queued := make([][]time.Time, senders) // sender i's frame seq was queued at queued[i][seq]
			var stop atomic.Bool
			var wg sync.WaitGroup
			for i := range src {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for seq := 0; seq < perSender && !stop.Load(); seq++ {
						kind := FrameRequest
						if seq%2 == 0 {
							kind = FrameData
						}
						queued[i] = append(queued[i], time.Now())
						src[i].Send(Frame{Kind: kind, Msg: netmodel.Message{To: overlay.NodeID(101 + i), Seg: segment.ID(seq)}})
						time.Sleep(50 * time.Microsecond)
					}
				}(i)
			}
			time.Sleep(2 * time.Millisecond)
			tr.SetPolicy(netmodel.Flat{Delay: delayMS})
			time.Sleep(2 * delay) // frames in flight across the next switch
			tr.SetPolicy(blockOdd{netmodel.Flat{Delay: delayMS}})
			blocked := time.Now()
			time.Sleep(2 * delay)
			tr.Close()
			closed := time.Now()
			lens := make([]int, senders)
			for i := range dst {
				lens[i] = queuedFrames(dst[i])
			}
			time.Sleep(3 * delay) // every delayed frame's timer has fired
			stop.Store(true)
			wg.Wait()

			// A frame queued at q can reach the shaper's checks no earlier
			// than q, or q+delay from a timer; a data frame queued after
			// blocked-delay was delayed (the Flat was in force by then).
			earliest := func(f Frame, q time.Time) time.Time {
				if f.Kind == FrameData {
					return q.Add(delay)
				}
				return q
			}
			evenAfterBlock := 0
			for i := range dst {
				if n := queuedFrames(dst[i]); n != lens[i] {
					t.Errorf("node %d's inbox grew from %d to %d frames after Close returned", 101+i, lens[i], n)
				}
				for n := queuedFrames(dst[i]); n > 0; n-- {
					f := <-dst[i].Recv()
					if f.Msg.From != overlay.NodeID(1+i) || int(f.Msg.Seg) >= len(queued[i]) {
						t.Fatalf("node %d received a frame no one sent it: %+v", 101+i, f)
					}
					q := queued[i][f.Msg.Seg]
					at := earliest(f, q)
					switch {
					case at.After(closed):
						t.Errorf("%s frame %d from node %d queued %v after Close returned landed",
							f.Kind, f.Msg.Seg, f.Msg.From, q.Sub(closed))
					case f.Msg.From%2 == 1 && at.After(blocked):
						t.Errorf("%s frame %d from node %d queued %v after the severing policy landed",
							f.Kind, f.Msg.Seg, f.Msg.From, q.Sub(blocked))
					case f.Msg.From%2 == 0 && q.After(blocked):
						evenAfterBlock++
					}
				}
			}
			if evenAfterBlock == 0 {
				t.Error("no frame from an even sender landed under the severing policy: the transport stopped delivering, not the policy")
			}
		})
	}
}
