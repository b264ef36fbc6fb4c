package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	goruntime "runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gossipstream/internal/sim"
	"gossipstream/internal/sim/engine"
	"gossipstream/internal/stats"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident high-water mark (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// settle runs between units, outside anything timed: it collects the
// previous unit's garbage so every unit starts from the same heap, and
// gives a live unit's peers (which are told to quit, not waited for)
// a moment to exit, so their teardown is not billed to the next unit.
func settle() {
	goruntime.GC()
	time.Sleep(20 * time.Millisecond)
}

// benchStream tags the sub-seed derivation so it can never collide with
// one of the simulator's own engine.SeedFor phase streams.
const benchStream = 0xbe

// subSeed derives the seed of the i-th unit of a run from the run seed.
// Every workload runs several units on different sub-seeds and pools
// them: one topology's luck (who the source's neighbors are) moves the
// simulated switch by ±10 %, and only pooling keeps a run steady from
// seed to seed.
func subSeed(seed int64, i int) int64 {
	return engine.SeedFor(seed, benchStream, i, 0, 0) & math.MaxInt64
}

// tally pools what the units of one run measured: per-unit cost (wall,
// CPU per peer-period), the switch windows' quality, and the operation
// count. Cost metrics are medians over the units: a unit the host
// disturbed reads long, and a median shrugs it off where a mean does not.
//
// One operation is one cohort node in one switch window; it failed if
// the node had not finished S1 or not prepared S2 when the window
// closed.
type tally struct {
	setups []float64 // seconds, one per unit
	walls  []float64 // seconds, one per unit
	cpus   []float64 // CPU microseconds per peer-period, one per unit

	prepare, finish  []float64 // one window mean per switch window
	played, stalled  int64
	control, data    int64
	attempted, fails int64

	digest hash.Hash
}

func newTally() *tally { return &tally{digest: sha256.New()} }

// unit is what one execution of a workload's scenario measured.
type unit struct {
	setup, wall, cpu time.Duration
	peerPeriods      int64
	results          []*sim.Result
}

func (t *tally) add(u unit) {
	t.setups = append(t.setups, u.setup.Seconds())
	t.walls = append(t.walls, u.wall.Seconds())
	t.cpus = append(t.cpus, float64(u.cpu.Nanoseconds())/1e3/float64(u.peerPeriods))
	for _, res := range u.results {
		t.addResult(res)
	}
}

func (t *tally) addResult(res *sim.Result) {
	for _, w := range res.Windows {
		hashWindow(t.digest, w)
		t.played += w.PlayedSegments
		t.stalled += w.StalledSlots
		t.control += w.ControlBits
		t.data += w.DataBits
		if w.Kind != "switch" {
			continue
		}
		t.attempted += int64(w.Cohort)
		t.fails += int64(w.UnfinishedS1 + w.UnpreparedS2)
		if len(w.PrepareS2Times) > 0 {
			t.prepare = append(t.prepare, w.AvgPrepareS2())
		}
		if len(w.FinishS1Times) > 0 {
			t.finish = append(t.finish, w.AvgFinishS1())
		}
	}
}

// hashWindow folds every time and counter of one window into the result
// digest. The simulator is a pure function of its seed, so two runs of
// one workload and seed must agree on this hash to the last bit.
func hashWindow(h hash.Hash, w *sim.SwitchMetrics) {
	fmt.Fprintf(h, "%d|%s|%d|%d|%d|%t|%d|%d|%d|%d|%d|%d|%d|%d|%d|%x|%d|%d|%d|%t|%t",
		w.Window, w.Kind, w.Tick, w.OldSource, w.NewSource, w.Failure, w.Nodes, w.Cohort,
		w.UnfinishedS1, w.UnpreparedS2, w.ControlBits, w.DataBits,
		w.NetDelivered, w.NetLost, w.NetReRequests, math.Float64bits(w.NetDelaySeconds),
		w.PlayedSegments, w.StalledSlots, w.MeasuredTicks, w.HitHorizon, w.Interrupted)
	for _, ts := range [][]float64{w.FinishS1Times, w.PrepareS2Times, w.StartS2Times} {
		fmt.Fprintf(h, "|%d", len(ts))
		for _, v := range ts {
			fmt.Fprintf(h, ",%x", math.Float64bits(v))
		}
	}
}

func (t *tally) resultDigest() string { return hex.EncodeToString(t.digest.Sum(nil)[:12]) }

// quality returns the quality metrics pooled over every window tallied.
func (t *tally) quality() (map[string]float64, error) {
	if len(t.prepare) == 0 || len(t.finish) == 0 || t.data == 0 {
		return nil, fmt.Errorf("run measured no switch window")
	}
	return map[string]float64{
		"switch_time_s":  stats.Mean(t.prepare),
		"finish_s1_s":    stats.Mean(t.finish),
		"continuity":     float64(t.played) / float64(t.played+t.stalled),
		"overhead_ratio": float64(t.control) / float64(t.data),
	}, nil
}

// endToEnd turns the tally into the end-to-end metrics: the quality
// metrics plus the cost of the units and the process's peak memory.
func (t *tally) endToEnd() (map[string]float64, error) {
	m, err := t.quality()
	if err != nil {
		return nil, err
	}
	if m["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	m["setup_s"] = stats.Median(t.setups)
	m["run_s"] = stats.Median(t.walls)
	m["cpu_us_per_peer_period"] = stats.Median(t.cpus)
	return m, nil
}

// simTicks is the number of scheduling periods a simulator run executed.
// The scripts here set no Duration, so a run ends once its last event has
// fired and its last window has closed (sim.Sim.Run); the traced run
// checks this against the engine's own gossip_ticks_total counter.
func simTicks(events []sim.Event, res *sim.Result) int {
	ticks := 1
	for _, ev := range events {
		ticks = max(ticks, ev.Tick+1)
	}
	for _, w := range res.Windows {
		ticks = max(ticks, w.Tick+w.MeasuredTicks)
	}
	return ticks
}
