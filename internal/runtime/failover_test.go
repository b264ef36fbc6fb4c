package runtime

import (
	"testing"
	"time"

	"gossipstream/internal/overlay"
	"gossipstream/internal/scenario"
	"gossipstream/internal/sim"
)

// shardRunner builds one shard of a three-way split of the small paper
// scenario on an in-process chan transport.
func shardRunner(t *testing.T, shard int) *Runner {
	t.Helper()
	sc := scenario.PaperSingleSwitch().Scaled(30)
	tr := NewChanTransport(sc.Seed ^ int64(shard))
	t.Cleanup(tr.Close)
	r, err := FromScenario(sc, sim.Fast, Options{Transport: tr, TimeScale: 500})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.StartShard(shard, 3); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestResolveFailoverRemapsOrphans drives the directory-driven shard
// re-mapping end to end in-process: the coordinator (shard 0) declares
// shard 1 dead, resolves its peers into reassignment directives, and a
// surviving worker (shard 2) applies them — after which every orphan
// has a surviving owner on both processes and shard 2 actually runs the
// peers it adopted.
func TestResolveFailoverRemapsOrphans(t *testing.T) {
	r0 := shardRunner(t, 0)
	defer r0.Abort()
	r2 := shardRunner(t, 2)
	defer r2.Abort()

	// A few ticks so local reports exist, then share shard 2's view with
	// the coordinator the way the status stream would.
	for i := 0; i < 3; i++ {
		if err := r0.TickShard(); err != nil {
			t.Fatal(err)
		}
		if err := r2.TickShard(); err != nil {
			t.Fatal(err)
		}
	}
	r0.MergeStatus(r2.ShardStatus())

	dirs, srcDied := r0.ResolveFailover(1, []int{0, 2})
	if srcDied {
		t.Fatal("the initial source is owned by shard 0; killing shard 1 must not report srcDied")
	}
	if len(dirs) == 0 {
		t.Fatal("no directives for a shard that owned a third of the population")
	}

	// Every shard-1 peer must be re-owned exactly once, by a survivor.
	owners := map[overlay.NodeID]int{}
	for _, d := range dirs {
		if d.Kind != DirReassign {
			t.Fatalf("unexpected %v directive (no role-holders lived on shard 1 yet)", d.Kind)
		}
		if d.DeadShard != 1 {
			t.Fatalf("DeadShard = %d, want 1", d.DeadShard)
		}
		if len(d.Respawns) > maxRespawnsPerDirective {
			t.Fatalf("directive carries %d respawns, cap is %d", len(d.Respawns), maxRespawnsPerDirective)
		}
		for _, rs := range d.Respawns {
			if _, dup := owners[rs.Join.ID]; dup {
				t.Fatalf("node %d reassigned twice", rs.Join.ID)
			}
			if rs.Owner != 0 && rs.Owner != 2 {
				t.Fatalf("node %d assigned to dead or unknown shard %d", rs.Join.ID, rs.Owner)
			}
			if rs.Join.Anchor < 0 {
				t.Fatalf("node %d respawns with anchor %d", rs.Join.ID, rs.Join.Anchor)
			}
			if rs.Join.Profile != r0.profile[rs.Join.ID] {
				t.Fatalf("node %d respawns with profile %+v, ledger has %+v", rs.Join.ID, rs.Join.Profile, r0.profile[rs.Join.ID])
			}
			owners[rs.Join.ID] = rs.Owner
		}
	}
	for i := 0; i < 30; i++ {
		id := overlay.NodeID(i)
		if int(id)%3 != 1 {
			continue
		}
		if _, ok := owners[id]; !ok {
			t.Errorf("shard-1 node %d was never reassigned", id)
		}
	}

	// Both sides apply; the ownership override must agree everywhere and
	// shard 2 must now be running its adopted peers.
	before := len(r2.ShardStatus())
	for _, d := range dirs {
		if err := r0.Apply(d); err != nil {
			t.Fatalf("coordinator apply: %v", err)
		}
		wire := *d
		wire.Resolved = false
		if err := r2.Apply(&wire); err != nil {
			t.Fatalf("worker apply: %v", err)
		}
	}
	for id, owner := range owners {
		if got := r0.OwnerOf(id); got != owner {
			t.Errorf("shard 0 routes node %d to shard %d, directive said %d", id, got, owner)
		}
		if got := r2.OwnerOf(id); got != owner {
			t.Errorf("shard 2 routes node %d to shard %d, directive said %d", id, got, owner)
		}
	}

	// Replaying the same directive must be a no-op (the control plane
	// may retry a directive the ack lost).
	for _, d := range dirs {
		wire := *d
		wire.Resolved = false
		if err := r2.Apply(&wire); err != nil {
			t.Fatalf("replayed apply: %v", err)
		}
	}

	for i := 0; i < 3; i++ {
		if err := r0.TickShard(); err != nil {
			t.Fatal(err)
		}
		if err := r2.TickShard(); err != nil {
			t.Fatal(err)
		}
	}
	after := len(r2.ShardStatus())
	adopted := 0
	for _, owner := range owners {
		if owner == 2 {
			adopted++
		}
	}
	if after < before+adopted {
		t.Errorf("shard 2 reports %d peers after adopting %d (had %d before)", after, adopted, before)
	}
}

// TestRespawnSeedDiffers pins the salt: a respawned peer must not
// resume its first incarnation's RNG stream.
func TestRespawnSeedDiffers(t *testing.T) {
	if respawnSeedSalt == 0 {
		t.Fatal("respawn seed salt is zero — respawns would replay the original stream")
	}
}

// TestPaceCountsOverruns drives the shared pacing step — the one every
// driving loop ends its period with — past its deadline on the runners of
// two shards: a late period is an overrun on whichever runner paced it.
func TestPaceCountsOverruns(t *testing.T) {
	for _, shard := range []int{0, 2} {
		r := shardRunner(t, shard)
		defer r.Abort()
		for late := 1; late <= 2; late++ {
			if err := r.TickShard(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(2 * r.PeriodWall())
			r.Pace()
			if got := r.Stats().Overruns; got != late {
				t.Errorf("shard %d: Overruns = %d after %d late periods", shard, got, late)
			}
		}
	}
}
