package runtime

import (
	"sync/atomic"
	"time"

	"gossipstream/internal/obs"
)

// Live-runtime observability: per-tick metrics, the periodic stats line,
// the atomic /runz snapshot and the compact health sample the cluster
// gossips on its status stream. Everything here is observational — it
// reads runner state after the period's reports have landed and never
// feeds anything back, so an instrumented live run behaves identically
// to a bare one (modulo wall-clock noise the scheduler already absorbs).

// transportSampleEvery bounds how often the runner calls
// Transport.Stats for telemetry: on the UDP transport that call parses
// /proc/net/udp for kernel receive drops, which is far too expensive
// per tick.
const transportSampleEvery = 10

// runnerObs is the runner's registered metric set (nil when disabled).
type runnerObs struct {
	trace *obs.Trace

	tickNS   *obs.Histogram
	ticks    *obs.Counter
	overruns *obs.Counter

	sent      *obs.Counter
	delivered *obs.Counter
	lost      *obs.Counter
	reReqs    *obs.Counter
	inboxDrop *obs.Counter
	malformed *obs.Counter
	kernel    *obs.Counter
	datagrams *obs.Counter
	wireFrame *obs.Counter

	peers      *obs.Gauge
	inboxDepth *obs.Gauge
	holes      *obs.Counter
	events     *obs.Counter
	windows    *obs.Counter
	windowOpen *obs.Gauge

	snap atomic.Pointer[RunSnapshot]
}

// newRunnerObs registers the live runtime's metric catalog. Series
// names are shared with the simulator where the semantics match, so a
// dashboard reads either backend.
func newRunnerObs(o *obs.Obs) *runnerObs {
	reg := o.Registry()
	return &runnerObs{
		trace:    o.Tracer(),
		tickNS:   reg.Histogram("gossip_tick_ns", "wall-clock duration of one scheduling period"),
		ticks:    reg.Counter("gossip_ticks_total", "scheduling periods executed"),
		overruns: reg.Counter("gossip_overruns_total", "periods whose processing outlasted the period length"),

		sent:      reg.Counter("gossip_frames_sent_total", "data frames handed to the transport"),
		delivered: reg.Counter("gossip_frames_delivered_total", "data frames that reached their destination inbox"),
		lost:      reg.Counter("gossip_frames_lost_total", "data frames lost to policy draws or severed links"),
		reReqs:    reg.Counter("gossip_frames_rerequested_total", "granted loss-induced re-requests (supplier side)"),
		inboxDrop: reg.Counter("gossip_transport_inbox_dropped_total", "frames dropped at a full peer inbox"),
		malformed: reg.Counter("gossip_transport_malformed_total", "datagrams that failed to decode"),
		kernel:    reg.Counter("gossip_kernel_udp_drops_total", "kernel-reported receive drops on the transport's UDP sockets"),
		datagrams: reg.Counter("gossip_transport_datagrams_total", "datagrams the transport wrote"),
		wireFrame: reg.Counter("gossip_transport_frames_total", "frames of every kind carried in those datagrams"),

		peers:      reg.Gauge("gossip_active_peers", "running, arrived peers this period"),
		inboxDepth: reg.Gauge("gossip_inbox_depth", "deepest peer inbox observed at period end"),
		holes:      reg.Counter("gossip_playback_holes_total", "playback slots that stalled on a missing segment"),
		events:     reg.Counter("gossip_events_total", "scenario directives applied"),
		windows:    reg.Counter("gossip_windows_closed_total", "measurement windows closed"),
		windowOpen: reg.Gauge("gossip_window_open", "1 while a measurement window is accumulating"),
	}
}

// RunSnapshot is the /runz view of a live run. The runner publishes one
// atomically at every period end, so HTTP handlers read a consistent
// snapshot without touching runner state.
type RunSnapshot struct {
	Scenario      string         `json:"scenario"`
	Algo          string         `json:"algo"`
	Shard         int            `json:"shard"`
	Shards        int            `json:"shards"`
	Tick          int            `json:"tick"`
	Duration      int            `json:"duration"`
	Periods       int            `json:"periods"`
	Overruns      int            `json:"overruns"`
	ActivePeers   int            `json:"active_peers"`
	InboxDepth    int            `json:"inbox_depth"`
	WindowOpen    bool           `json:"window_open"`
	WindowsClosed int            `json:"windows_closed"`
	Transport     TransportStats `json:"transport"`
}

// Snapshot returns the latest published RunSnapshot (nil before the
// first period, or when observability is disabled).
func (r *Runner) Snapshot() *RunSnapshot {
	if r.obs == nil {
		return nil
	}
	return r.obs.snap.Load()
}

// HealthSample is the compact per-process health view a cluster worker
// piggybacks on its status heartbeat — enough for the coordinator's
// liveness table without a second reporting channel. Counters are
// cumulative over the run; the transport numbers come from the sampled
// stats cache (see transportSampleEvery).
type HealthSample struct {
	Tick         int
	Peers        int
	InboxDepth   int
	Holes        int64
	ReRequests   int64
	Overruns     int
	DataLost     int64
	InboxDropped int64
	KernelDrops  int64
}

// HealthSample assembles the current health view. Works with or
// without an attached obs bundle (the cluster gossips health even on
// un-instrumented runs).
func (r *Runner) HealthSample() HealthSample {
	r.maybeRefreshStats()
	h := HealthSample{
		Tick:         r.tick,
		Peers:        r.activeCount(),
		InboxDepth:   r.maxInboxDepth(),
		Overruns:     r.stats.Overruns,
		DataLost:     r.statsCache.DataLost,
		InboxDropped: r.statsCache.InboxDropped,
		KernelDrops:  r.statsCache.KernelDrops,
	}
	if r.obs != nil {
		h.Holes = r.obs.holes.Value()
		h.ReRequests = r.obs.reReqs.Value()
	}
	return h
}

// maxInboxDepth is the deepest owned-peer inbox right now — queued
// frames a peer has not drained, overflow included, the live runtime's
// backlog signal.
func (r *Runner) maxInboxDepth() int {
	depth := 0
	for _, h := range r.peers {
		if h.running {
			if n := queuedFrames(h.p.ep); n > depth {
				depth = n
			}
		}
	}
	return depth
}

// maybeRefreshStats refreshes the transport stats cache at most every
// transportSampleEvery periods (Stats is expensive on UDP).
func (r *Runner) maybeRefreshStats() {
	if r.statsCacheTick >= 0 && r.tick-r.statsCacheTick < transportSampleEvery {
		return
	}
	r.refreshStats()
}

// refreshStats reads the transport counters now and mirrors them into
// the registry.
func (r *Runner) refreshStats() {
	r.statsCache = r.tr.Stats()
	r.statsCacheTick = r.tick
	if ob := r.obs; ob != nil {
		st := r.statsCache
		ob.sent.SetTotal(st.DataSent)
		ob.delivered.SetTotal(st.DataDelivered)
		ob.lost.SetTotal(st.DataLost)
		ob.inboxDrop.SetTotal(st.InboxDropped)
		ob.malformed.SetTotal(st.Malformed)
		ob.kernel.SetTotal(st.KernelDrops)
		ob.datagrams.SetTotal(st.Datagrams)
		ob.wireFrame.SetTotal(st.Frames)
	}
}

// tickObs runs the per-period observability work after the period's
// reports landed: tick metrics, the trace line, the /runz snapshot and
// the periodic stats line. A no-op when neither obs nor periodic stats
// are configured.
func (r *Runner) tickObs(tickStart time.Time) {
	statsLine := r.opt.StatsEvery > 0 && r.opt.Logf != nil &&
		(r.tick+1)%r.opt.StatsEvery == 0
	if r.obs == nil && !statsLine {
		return
	}
	r.maybeRefreshStats()
	depth := r.maxInboxDepth()
	active := r.activeCount()
	if ob := r.obs; ob != nil {
		ns := int64(time.Since(tickStart))
		if ns <= 0 {
			ns = 1 // required trace field; omitempty must not drop it
		}
		ob.tickNS.Observe(ns)
		ob.ticks.Inc()
		ob.overruns.SetTotal(int64(r.stats.Overruns))
		ob.peers.Set(int64(active))
		ob.inboxDepth.Set(int64(depth))
		if r.win.Active() {
			ob.windowOpen.Set(1)
		} else {
			ob.windowOpen.Set(0)
		}
		te := obs.TraceEvent{T: obs.EvTick, Tick: r.tick, NS: ns}
		if r.shards > 1 {
			te.Shard = r.shard
		}
		ob.trace.Emit(te)
		r.publishSnapshot(depth, active)
	}
	if statsLine {
		st := r.statsCache
		r.opt.Logf("live: tick %d/%d peers=%d inbox=%d sent=%d delivered=%d lost=%d inboxDrop=%d kernelDrop=%d datagrams=%d frames=%d overruns=%d",
			r.tick+1, r.duration, active, depth,
			st.DataSent, st.DataDelivered, st.DataLost,
			st.InboxDropped, st.KernelDrops, st.Datagrams, st.Frames, r.stats.Overruns)
	}
}

// publishSnapshot stores a fresh RunSnapshot for /runz readers.
func (r *Runner) publishSnapshot(inboxDepth, active int) {
	r.obs.snap.Store(&RunSnapshot{
		Scenario:      r.sc.Name,
		Algo:          r.res.Algorithm,
		Shard:         r.shard,
		Shards:        r.shards,
		Tick:          r.tick,
		Duration:      r.duration,
		Periods:       r.stats.Periods,
		Overruns:      r.stats.Overruns,
		ActivePeers:   active,
		InboxDepth:    inboxDepth,
		WindowOpen:    r.win.Active(),
		WindowsClosed: len(r.res.Windows),
		Transport:     r.statsCache,
	})
}

// finishObs closes out the run's telemetry: a final stats refresh (so
// the kernel drop and transport totals are exact), a final snapshot,
// and the run-end trace line.
func (r *Runner) finishObs() {
	if r.obs == nil {
		return
	}
	r.refreshStats()
	r.publishSnapshot(r.maxInboxDepth(), r.activeCount())
	r.obs.trace.Emit(obs.TraceEvent{T: obs.EvRunEnd, Tick: r.tick, Windows: len(r.res.Windows)})
}
