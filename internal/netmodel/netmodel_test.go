package netmodel

import (
	"testing"

	"gossipstream/internal/overlay"
	"gossipstream/internal/sim/engine"
)

// TestConfigDefaulted pins netmodel's one default: a node without a
// ping of its own falls back to DefaultPingMS. Which parameters are legal
// is scenario.Validate's question (internal/scenario's TestParseErrors
// rejects a negative net loss, jitter or ping); per-node pings come from
// the synthesized trace, whose range trace's TestSynthesizeShape pins.
func TestConfigDefaulted(t *testing.T) {
	if d := (Config{}).Defaulted().DefaultPingMS; d != DefaultPingMS {
		t.Errorf("DefaultPingMS = %d, want %d", d, DefaultPingMS)
	}
	if d := (Config{DefaultPingMS: 90}).Defaulted().DefaultPingMS; d != 90 {
		t.Errorf("DefaultPingMS = %d, want the configured 90", d)
	}
}

// TestDelayTicks pins how a link delay becomes a delivery tick: Send
// returns the tick whose period the arrival timestamp falls in.
func TestDelayTicks(t *testing.T) {
	m := New(Config{PingMS: []int{100, 300}, DefaultPingMS: 60}, 1.0)
	// Mean one-way propagation (100+300)/2 = 200 ms < 1000 ms: no extra
	// ticks — the classic end-of-tick delivery.
	if d := m.Send(0, 0, 1, 1, 0); d != 0 {
		t.Errorf("sub-period delay gave %d extra ticks", d)
	}
	// Jitter pushes it over one period.
	if d := m.Send(0, 0, 1, 2, 900); d != 1 {
		t.Errorf("200+900 ms = %d ticks, want 1", d)
	}
	// A latency storm scales propagation but not jitter.
	m.SetLatencyFactor(10)
	if d := m.Send(0, 0, 1, 3, 0); d != 2 {
		t.Errorf("10x200 ms = %d ticks, want 2", d)
	}
	m.SetLatencyFactor(1)
	// Nodes beyond the ping table use the default.
	if d := m.Send(0, 0, 99, 4, 0); d != 0 {
		t.Errorf("default-ping delay gave %d extra ticks", d)
	}
	if p := m.Ping(99); p != 60 {
		t.Errorf("Ping(99) = %d, want the default 60", p)
	}
}

// TestSubtickPopOrder is the transport's ordering contract: two grants
// issued the same tick with different ping-derived delays pop in delay
// order, not injection order.
func TestSubtickPopOrder(t *testing.T) {
	// Node 2 is a slow peer (800 ms), node 3 a fast one (100 ms); both
	// send to node 1 (ping 100) in tick 0, slow first.
	m := New(Config{PingMS: []int{60, 100, 800, 100}}, 1.0)
	m.Send(0, 2, 1, 7, 0) // delay (800+100)/2 = 450 ms, injected first
	m.Send(0, 3, 1, 8, 0) // delay (100+100)/2 = 100 ms, injected second
	var got []int
	m.SettleDelivered(m.PopDue(0, 0, func(msg Message) {
		got = append(got, int(msg.Seg))
		want := 450.0
		if msg.Seg == 8 {
			want = 100.0
		}
		if d := msg.DelayMS(1.0); d != want {
			t.Errorf("seg %d delay = %v ms, want %v", msg.Seg, d, want)
		}
	}))
	if len(got) != 2 || got[0] != 8 || got[1] != 7 {
		t.Errorf("sub-tick pop order = %v, want [8 7] (delay order)", got)
	}
}

// TestSubtickDueTick pins that a message lands in the period its
// continuous delay floors onto — the send tick plus the whole periods of
// delay — and pops exactly at the tick Send returned, including an
// arrival that sits exactly on a period boundary.
func TestSubtickDueTick(t *testing.T) {
	m := New(Config{DefaultPingMS: 100}, 1.0)
	wantDue := map[float64]int{0: 3, 850: 3, 950: 4, 1900: 5, 2850: 5}
	perTick := map[int]int{}
	for jit, want := range wantDue {
		due := m.Send(3, 0, 1, 1, jit)
		if due != want {
			t.Errorf("jitter %v ms: due %d, want %d", jit, due, want)
		}
		perTick[due]++
	}
	for tick := 3; tick <= 6; tick++ {
		popped := 0
		m.SettleDelivered(m.PopDue(0, tick, func(msg Message) {
			popped++
			if msg.Due != tick {
				t.Errorf("tick %d popped a message due at %d", tick, msg.Due)
			}
		}))
		if popped != perTick[tick] {
			t.Errorf("tick %d: popped %d, want %d", tick, popped, perTick[tick])
		}
	}
	if m.InFlight() != 0 {
		t.Errorf("stragglers left in flight: %d", m.InFlight())
	}
}

// TestSendPopOrder pins the heap contract: messages pop in (arrival
// timestamp, injection sequence) order regardless of push order, per
// destination shard.
func TestSendPopOrder(t *testing.T) {
	m := New(Config{DefaultPingMS: 10}, 1.0)
	// Four messages to node 1 (shard 0) with staggered delays via jitter.
	m.Send(0, 2, 1, 7, 2500) // due 2
	m.Send(0, 3, 1, 8, 0)    // due 0
	m.Send(0, 4, 1, 9, 1500) // due 1
	m.Send(0, 5, 1, 10, 0)   // due 0, injected after seg 8
	if m.InFlight() != 4 {
		t.Fatalf("inFlight = %d, want 4", m.InFlight())
	}

	var got []int
	popped := m.PopDue(0, 1, func(msg Message) { got = append(got, int(msg.Seg)) })
	m.SettleDelivered(popped)
	want := []int{8, 10, 9} // due 0 in injection order, then due 1
	if len(got) != len(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}
	if m.InFlight() != 1 {
		t.Errorf("inFlight = %d after settle, want 1", m.InFlight())
	}
	// The straggler pops at its due tick.
	popped = m.PopDue(0, 2, func(msg Message) {
		if msg.Seg != 7 {
			t.Errorf("straggler seg = %d, want 7", msg.Seg)
		}
	})
	m.SettleDelivered(popped)
	if m.InFlight() != 0 {
		t.Errorf("inFlight = %d, want 0", m.InFlight())
	}
	// An out-of-range shard is an empty heap, not a panic.
	if n := m.PopDue(50, 100, func(Message) { t.Error("popped from empty shard") }); n != 0 {
		t.Errorf("empty shard popped %d", n)
	}
}

// TestShardRouting pins that messages land in the destination's engine
// shard.
func TestShardRouting(t *testing.T) {
	m := New(Config{DefaultPingMS: 10}, 1.0)
	far := engine.ShardSize + 3 // node in shard 1
	m.Send(0, 0, 1, 1, 0)
	m.Send(0, 0, int32ID(far), 2, 0)
	seen := map[int]bool{}
	for shard := 0; shard < 2; shard++ {
		m.PopDue(shard, 0, func(msg Message) { seen[int(msg.To)] = true })
	}
	if !seen[1] || !seen[far] {
		t.Errorf("messages not routed per shard: %v", seen)
	}
}

func TestLossBurst(t *testing.T) {
	m := New(Config{Loss: 0.05}, 1.0)
	if p := m.LossProb(10); p != 0.05 {
		t.Errorf("baseline loss = %v", p)
	}
	m.SetLossBurst(0.5, 20)
	if p := m.LossProb(19); p != 0.5 {
		t.Errorf("burst loss = %v", p)
	}
	if p := m.LossProb(20); p != 0.05 {
		t.Errorf("post-burst loss = %v", p)
	}
}

// TestPartitionSides pins the side assignment: deterministic, two-sided
// at frac 0.5, stable for ids assigned after the partition started, and
// all-clear after Heal.
func TestPartitionSides(t *testing.T) {
	m := New(Config{}, 1.0)
	if m.Blocked(1, 2) {
		t.Error("blocked without a partition")
	}
	m.Partition(0.5, 12345)
	ones, zeros := 0, 0
	for i := 0; i < 1000; i++ {
		if m.Side(int32ID(i)) == 1 {
			ones++
		} else {
			zeros++
		}
	}
	if ones < 300 || zeros < 300 {
		t.Errorf("lopsided split: %d vs %d", ones, zeros)
	}
	// Determinism: same seed, same sides.
	m2 := New(Config{}, 1.0)
	m2.Partition(0.5, 12345)
	for i := 0; i < 1000; i++ {
		if m.Side(int32ID(i)) != m2.Side(int32ID(i)) {
			t.Fatalf("side of node %d not deterministic", i)
		}
	}
	var a, b int = -1, -1
	for i := 0; i < 1000 && (a < 0 || b < 0); i++ {
		if m.Side(int32ID(i)) == 0 {
			a = i
		} else {
			b = i
		}
	}
	if !m.Blocked(int32ID(a), int32ID(b)) {
		t.Error("cross-side link not blocked")
	}
	if m.Blocked(int32ID(a), int32ID(a)) {
		t.Error("same-side link blocked")
	}
	m.Heal()
	if m.Blocked(int32ID(a), int32ID(b)) {
		t.Error("blocked after heal")
	}
}

// TestPartitionByPingSides pins the latency-clustered split: the
// low-ping cluster lands on side 1 around the frac-quantile cut, the
// assignment is a deterministic pure function of (pings, frac, seed),
// nodes beyond the ping table sit on their default-ping side, and ties
// at the cut split by the seeded hash to hit the requested fraction.
func TestPartitionByPingSides(t *testing.T) {
	// 100 low-ping nodes (20 ms) then 100 high-ping nodes (500 ms).
	pings := make([]int, 200)
	for i := range pings {
		if i < 100 {
			pings[i] = 20
		} else {
			pings[i] = 500
		}
	}
	m := New(Config{PingMS: pings, DefaultPingMS: 500}, 1.0)
	m.PartitionByPing(0.5, 42)
	for i := 0; i < 100; i++ {
		if m.Side(int32ID(i)) != 1 {
			t.Fatalf("low-ping node %d not on side 1", i)
		}
	}
	for i := 100; i < 200; i++ {
		if m.Side(int32ID(i)) != 0 {
			t.Fatalf("high-ping node %d not on side 0", i)
		}
	}
	// A churn joiner beyond the table carries the default (high) ping.
	if m.Side(int32ID(999)) != 0 {
		t.Error("default-ping joiner not on the high-ping side")
	}
	if !m.Blocked(0, 150) || m.Blocked(0, 50) || m.Blocked(150, 199) {
		t.Error("by-ping blocking does not follow the cluster sides")
	}
	// Determinism: same inputs, same sides.
	m2 := New(Config{PingMS: pings, DefaultPingMS: 500}, 1.0)
	m2.PartitionByPing(0.5, 42)
	for i := 0; i < 200; i++ {
		if m.Side(int32ID(i)) != m2.Side(int32ID(i)) {
			t.Fatalf("side of node %d not deterministic", i)
		}
	}
	m.Heal()
	if m.Blocked(0, 150) {
		t.Error("blocked after heal")
	}

	// Uniform pings: everyone ties at the cut, the seeded hash carries
	// the split, and the fraction still roughly holds.
	flat := make([]int, 1000)
	for i := range flat {
		flat[i] = 60
	}
	mf := New(Config{PingMS: flat}, 1.0)
	mf.PartitionByPing(0.3, 7)
	ones := 0
	for i := 0; i < 1000; i++ {
		if mf.Side(int32ID(i)) == 1 {
			ones++
		}
	}
	if ones < 200 || ones > 400 {
		t.Errorf("tie-broken split put %d of 1000 on side 1, want ~300", ones)
	}
}

func int32ID(i int) overlay.NodeID { return overlay.NodeID(i) }

// TestFlatPolicy pins the self-contained LinkPolicy: constant delay
// plus caller jitter, constant loss, no partitions — the raw live
// transport configuration.
func TestFlatPolicy(t *testing.T) {
	var p LinkPolicy = Flat{Delay: 40, Loss: 0.25}
	if d := p.DelayMS(1, 2, 5); d != 45 {
		t.Errorf("DelayMS = %v, want 45", d)
	}
	if p.JitterMS() != 0 {
		t.Errorf("JitterMS = %v, want 0", p.JitterMS())
	}
	if l := p.LossProb(7); l != 0.25 {
		t.Errorf("LossProb = %v, want 0.25", l)
	}
	if p.Blocked(1, 2) {
		t.Error("Flat reported a blocked link")
	}
	// The zero Flat is the deliver-everything-immediately policy.
	zero := Flat{}
	if zero.DelayMS(1, 2, 0) != 0 || zero.LossProb(0) != 0 {
		t.Error("zero Flat is not a no-op policy")
	}
}

// TestModelIsLinkPolicy pins the transit seam: the heap-backed Model
// and the runtime's flat shaper satisfy the same transport-facing
// interface, so scenario events reach both backends through one
// surface.
func TestModelIsLinkPolicy(t *testing.T) {
	m := New(Config{PingMS: []int{20, 80}, JitterMS: 0}, 1)
	var p LinkPolicy = m
	if d := p.DelayMS(0, 1, 0); d != 50 {
		t.Errorf("model DelayMS = %v, want (20+80)/2", d)
	}
	m.SetLatencyFactor(3)
	if d := p.DelayMS(0, 1, 0); d != 150 {
		t.Errorf("model DelayMS under latency shift = %v, want 150", d)
	}
	m.SetLossBurst(0.5, 10)
	if p.LossProb(9) != 0.5 || p.LossProb(10) != 0 {
		t.Error("loss burst not visible through the policy surface")
	}
	m.Partition(0.5, 42)
	blockedAny := false
	for a := overlay.NodeID(0); a < 20 && !blockedAny; a++ {
		for b := a + 1; b < 20; b++ {
			if p.Blocked(a, b) {
				blockedAny = true
				break
			}
		}
	}
	if !blockedAny {
		t.Error("no link blocked under an active 50/50 partition")
	}
	m.Heal()
	if p.Blocked(0, 1) {
		t.Error("link still blocked after heal")
	}
}
