package cluster

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"gossipstream/internal/overlay"
	"gossipstream/internal/runtime"
	"gossipstream/internal/scenario"
	"gossipstream/internal/sim"
)

// shardZero starts shard 0 of a three-shard run of n nodes over a
// transport of its own, routing by a shard table whose two workers are
// raw loopback sockets the test holds (so stray peer frames land
// nowhere else).
func shardZero(t *testing.T, n int) (*runtime.Runner, peerRoutes) {
	t.Helper()
	tr := runtime.NewUDPTransport(1)
	t.Cleanup(tr.Close)
	self, err := tr.Bind("")
	if err != nil {
		t.Skipf("udp bind unavailable: %v", err)
	}
	addrs := []string{self}
	for i := 0; i < 2; i++ {
		raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Skipf("udp bind unavailable: %v", err)
		}
		t.Cleanup(func() { raw.Close() })
		addrs = append(addrs, raw.LocalAddr().String())
	}
	r, err := runtime.FromScenario(scenario.PaperSingleSwitch().Scaled(n), sim.Fast, runtime.Options{Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	routes := peerRoutes{table: &shardTable{}, r: r}
	routes.table.store(addrs)
	tr.SetAddrBook(routes)
	if err := r.StartShard(0, 3); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Abort)
	return r, routes
}

// TestReassignRoutesAtOnce: a failover respawn is routable on a process
// the moment it applies the reassign directive — every respawned id
// resolves to its adopter's address, with nothing exchanged between
// processes in between.
func TestReassignRoutesAtOnce(t *testing.T) {
	r, routes := shardZero(t, 30)
	dirs, _ := r.ResolveFailover(1, []int{0, 2})
	adopted := map[int]int{}
	for _, d := range dirs {
		if err := r.Apply(d); err != nil {
			t.Fatal(err)
		}
		for _, rs := range d.Respawns {
			want, _ := routes.table.addr(rs.Owner)
			if got, ok := routes.Resolve(rs.Join.ID); !ok || got != want {
				t.Fatalf("respawned node %d resolves to %q (%v), want its adopter shard %d's %q", rs.Join.ID, got, ok, rs.Owner, want)
			}
			adopted[rs.Owner]++
		}
	}
	if adopted[0] == 0 || adopted[2] == 0 {
		t.Fatalf("respawns per adopter %v, want some on shard 0 and on shard 2", adopted)
	}
}

// TestResolveDuringReassign: peers resolve destinations on their own
// goroutines while the run loop applies reassignments. Eight resolvers
// race a stream of reassign directives (run under -race); afterwards
// every reassigned id resolves to its new owner.
func TestResolveDuringReassign(t *testing.T) {
	const n = 30
	r, routes := shardZero(t, n)
	var stop atomic.Bool
	var wg, running sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		running.Add(1)
		go func() {
			defer wg.Done()
			for i := g; !stop.Load(); i++ {
				_, ok := routes.Resolve(overlay.NodeID(i % n))
				if i == g {
					running.Done()
				}
				if !ok {
					t.Errorf("node %d unresolvable", i%n)
					break
				}
			}
		}()
	}
	running.Wait()
	// Shard 1's nodes (ids 1, 4, …) move to shard 2 one directive at a
	// time, over and over.
	for i := 0; i < 2000; i++ {
		id := overlay.NodeID(1 + 3*(i%(n/3)))
		d := &runtime.Directive{Directive: sim.Directive{Kind: runtime.DirReassign, Tick: r.CurrentTick()}, DeadShard: 1,
			Respawns: []runtime.RespawnSpec{{Owner: 2, Join: sim.JoinSpec{ID: id}}}}
		if err := r.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	want, _ := routes.table.addr(2)
	for id := overlay.NodeID(1); id < n; id += 3 {
		if got, _ := routes.Resolve(id); got != want {
			t.Fatalf("reassigned node %d resolves to %q, want shard 2's %q", id, got, want)
		}
	}
}
