package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"slices"
	"time"

	"gossipstream/internal/bitfield"
	"gossipstream/internal/buffer"
	"gossipstream/internal/core"
	"gossipstream/internal/membership"
	"gossipstream/internal/netmodel"
	"gossipstream/internal/overlay"
	"gossipstream/internal/runtime"
	"gossipstream/internal/scenario"
	"gossipstream/internal/segment"
	"gossipstream/internal/sim"
	"gossipstream/internal/stats"
	"gossipstream/internal/trace"
)

// The layer drivers time calls into one module's public functions from
// outside, on seeded inputs shaped like the workloads' hot path: five
// suppliers behind partially filled B=600 buffers, 150 undelivered
// segments of the ending stream and the first 50 of the new one. They
// give every seam its own row, so a regression is localized instead of
// inferred from an end-to-end number.

const (
	layerBufferCap = 600 // B, the paper's buffer capacity
	layerSuppliers = 5   // M, the paper's neighbor count
	layerNeedOld   = 150
	layerNeedNew   = 50
	layerS1End     = segment.ID(1400)
	layerNetNodes  = 1024 // four engine shards of 256
)

// layerInputs is everything the drivers read, generated from the seed
// alone so the same seed times the same bytes.
type layerInputs struct {
	contents [layerSuppliers][]segment.ID // insertion order of each supplier buffer
	rates    [layerSuppliers]float64
	playhead segment.ID
	needOld  []segment.ID
	needNew  []segment.ID
	pings    []int
	netFrom  []overlay.NodeID
	netTo    []overlay.NodeID
	netJit   []float64
}

func newLayerInputs(seed int64) *layerInputs {
	rng := rand.New(rand.NewSource(subSeed(seed, 1<<20)))
	in := &layerInputs{playhead: layerS1End - 200}
	for s := range in.contents {
		// Each supplier holds ~70 % of the last B ids up to 50 past the
		// switch point, inserted nearly in order (pull scheduling lands
		// segments slightly out of order, which is what gives FIFO
		// positions — and so rarity — their spread).
		lo := layerS1End + layerNeedNew - layerBufferCap + 1
		for id := lo; id <= layerS1End+layerNeedNew; id++ {
			if rng.Float64() < 0.7 {
				in.contents[s] = append(in.contents[s], id)
			}
		}
		c := in.contents[s]
		for i := 0; i+1 < len(c); i += 2 {
			if rng.Intn(4) == 0 {
				c[i], c[i+1] = c[i+1], c[i]
			}
		}
		in.rates[s] = 10 + 10*rng.Float64()
	}
	span := int(layerS1End-in.playhead) + 1
	for _, off := range rng.Perm(span)[:layerNeedOld] {
		in.needOld = append(in.needOld, in.playhead+segment.ID(off))
	}
	slices.Sort(in.needOld)
	for i := 1; i <= layerNeedNew; i++ {
		in.needNew = append(in.needNew, layerS1End+segment.ID(i))
	}
	in.pings = make([]int, layerNetNodes)
	for i := range in.pings {
		in.pings[i] = 20 + rng.Intn(200)
	}
	const msgs = 4 * layerNetNodes // the in-flight depth sim.New reserves: four grants per node
	for i := 0; i < msgs; i++ {
		in.netFrom = append(in.netFrom, overlay.NodeID(rng.Intn(layerNetNodes)))
		in.netTo = append(in.netTo, overlay.NodeID(rng.Intn(layerNetNodes)))
		in.netJit = append(in.netJit, 1500*rng.Float64())
	}
	return in
}

// digest hashes every generated input; equal seeds must give equal
// digests (the smoke test pins it).
func (in *layerInputs) digest() string {
	h := sha256.New()
	fmt.Fprint(h, in.contents, in.rates, in.playhead, in.needOld, in.needNew,
		in.pings, in.netFrom, in.netTo, in.netJit)
	return hex.EncodeToString(h.Sum(nil))
}

func (in *layerInputs) buffers() []*buffer.Buffer {
	bufs := make([]*buffer.Buffer, layerSuppliers)
	for s := range bufs {
		bufs[s] = buffer.New(layerBufferCap)
		for _, id := range in.contents[s] {
			bufs[s].Insert(id)
		}
	}
	return bufs
}

// env assembles the scheduler's view of the inputs. The simulator plans
// against its neighbors' buffers directly; a live peer plans against the
// maps it decoded off the wire.
func (in *layerInputs) env(bufs []*buffer.Buffer, wireViews, switching bool) (*core.Env, error) {
	env := &core.Env{Tau: 1, P: 10, Q: 10, Inbound: 15, Playhead: in.playhead, NeedOld: in.needOld}
	if switching {
		env.NeedNew = in.needNew
	}
	for s, b := range bufs {
		var view core.View = b
		if wireViews {
			img, err := b.Snapshot().Encode()
			if err != nil {
				return nil, err
			}
			m, err := buffer.DecodeMap(img, layerBufferCap)
			if err != nil {
				return nil, err
			}
			view = m
		}
		env.Suppliers = append(env.Suppliers, core.Supplier{ID: core.SupplierID(s + 1), Rate: in.rates[s], View: view})
	}
	return env, nil
}

// sink keeps the compiler from discarding a driver's calls.
var sink int

// drivers times batches of calls; every batch is one span.
type drivers struct {
	sp     *spans
	parent int
	rows   map[string]float64
	// div shrinks every batch (the smoke test runs at toy scale).
	div int
}

const driverReps = 5

// measure runs fn — a batch of ops operations — driverReps times and
// records the median nanoseconds per operation under name.
func (d *drivers) measure(name string, ops int, fn func(ops int)) {
	ops = max(1, ops/d.div)
	per := make([]float64, driverReps)
	for r := range per {
		id := d.sp.begin(name, d.parent)
		start := time.Now()
		fn(ops)
		per[r] = float64(time.Since(start).Nanoseconds()) / float64(ops)
		d.sp.end(id)
	}
	d.rows[name] = stats.Median(per)
}

// layerRows runs every driver and returns their rows. wireViews selects
// the live peers' plan shape (decoded maps) over the simulator's
// (buffers); sc is the workload's scenario, which sizes the set-up rows.
func layerRows(sp *spans, parent int, seed int64, sc *scenario.Scenario, wireViews bool, div int) (map[string]float64, error) {
	d := &drivers{sp: sp, parent: sp.begin("layers", parent), rows: make(map[string]float64), div: div}
	defer sp.end(d.parent)
	in := newLayerInputs(seed)

	if err := d.setup(sc); err != nil {
		return nil, err
	}
	if err := d.plan(in, wireViews); err != nil {
		return nil, err
	}
	if err := d.bufferAndWire(in); err != nil {
		return nil, err
	}
	d.netmodel(in)
	d.membership(seed)
	if err := d.transports(seed); err != nil {
		return nil, err
	}
	return d.rows, nil
}

// setup times the stages of compiling a scenario, in milliseconds per
// call, at the workload's own size.
func (d *drivers) setup(sc *scenario.Scenario) error {
	ms := func(name string, fn func()) {
		d.measure(name, 1, func(int) { fn() })
		d.rows[name] /= 1e6
	}
	var tr *trace.Trace
	ms("trace.synthesize_ms", func() { tr = trace.Synthesize(sc.Name, sc.Nodes, 1, sc.Seed) })
	var augErr error
	ms("overlay.augment_ms", func() {
		g, err := tr.Graph()
		if err != nil {
			augErr = err
			return
		}
		overlay.AugmentMinDegree(g, layerSuppliers, rand.New(rand.NewSource(sc.Seed)))
	})
	if augErr != nil {
		return augErr
	}
	var cfg sim.Config
	var cfgErr error
	ms("scenario.config_ms", func() { cfg, cfgErr = sc.Config(sim.Fast) })
	if cfgErr != nil {
		return cfgErr
	}
	var newErr error
	ms("sim.new_ms", func() { _, newErr = sim.New(cfg) })
	if newErr != nil {
		return newErr
	}
	d.measure("buffer.new_ns", 2000, func(ops int) {
		for i := 0; i < ops; i++ {
			sink += buffer.New(layerBufferCap).Cap()
		}
	})
	return nil
}

func (d *drivers) plan(in *layerInputs, wireViews bool) error {
	bufs := in.buffers()
	switching, err := in.env(bufs, wireViews, true)
	if err != nil {
		return err
	}
	steady, err := in.env(bufs, wireViews, false)
	if err != nil {
		return err
	}
	var out core.Plan
	planner := func(algo core.Algorithm, env *core.Env) func(int) {
		return func(ops int) {
			for i := 0; i < ops; i++ {
				algo.Plan(env, &out)
				sink += len(out.Requests)
			}
		}
	}
	fast := &core.FastSwitch{}
	d.measure("core.fast_plan_ns", 300, planner(fast, switching))
	d.measure("core.steady_plan_ns", 300, planner(fast, steady))
	d.measure("core.normal_plan_ns", 300, planner(&core.NormalSwitch{}, switching))
	var cands []core.Candidate
	d.measure("core.build_candidates_ns", 300, func(ops int) {
		for i := 0; i < ops; i++ {
			cands = core.BuildCandidates(switching, core.ScoreOptions{}, cands[:0])
			sink += len(cands)
		}
	})
	// Allocations per warmed-up fast plan: the scheduler reuses its
	// scratch, so anything above zero is a regression to look at.
	var before, after goruntime.MemStats
	const calls = 200
	goruntime.ReadMemStats(&before)
	planner(fast, switching)(calls)
	goruntime.ReadMemStats(&after)
	d.rows["core.plan_allocs"] = float64(after.Mallocs-before.Mallocs) / calls
	return nil
}

func (d *drivers) bufferAndWire(in *layerInputs) error {
	b := in.buffers()[0]
	lo, hi := b.MinID(), b.MaxSeen()
	// The three lookup loops are spelled out rather than shared: a
	// callback per id would cost as much as the 2 ns lookup it times.
	d.measure("buffer.has_ns", 200000, func(ops int) {
		for i, id := 0, lo; i < ops; i, id = i+1, id+1 {
			if id > hi {
				id = lo
			}
			if b.Has(id) {
				sink++
			}
		}
	})
	d.measure("buffer.position_from_tail_ns", 200000, func(ops int) {
		for i, id := 0, lo; i < ops; i, id = i+1, id+1 {
			if id > hi {
				id = lo
			}
			sink += b.PositionFromTail(id)
		}
	})
	snap := b.Snapshot()
	d.measure("buffer.snapshot_into_ns", 2000, func(ops int) {
		for i := 0; i < ops; i++ {
			snap = b.SnapshotInto(snap, lo)
		}
	})
	d.measure("buffer.map_has_ns", 200000, func(ops int) {
		for i, id := 0, lo; i < ops; i, id = i+1, id+1 {
			if id > hi {
				id = lo
			}
			if snap.Has(id) {
				sink++
			}
		}
	})
	// Inserting ever-higher ids into a full buffer: every insert evicts.
	full := buffer.New(layerBufferCap)
	next := segment.ID(0)
	for ; full.Len() < layerBufferCap; next++ {
		full.Insert(next)
	}
	d.measure("buffer.insert_ns", 100000, func(ops int) {
		for i := 0; i < ops; i++ {
			full.Insert(next)
			next++
		}
	})

	img, err := snap.Encode()
	if err != nil {
		return err
	}
	var codecErr error
	d.measure("bitfield.encode_ns", 5000, func(ops int) {
		for i := 0; i < ops; i++ {
			out, err := bitfield.Encode(int64(snap.Anchor), snap.Bits)
			if err != nil {
				codecErr = err
			}
			sink += len(out)
		}
	})
	d.measure("bitfield.decode_ns", 5000, func(ops int) {
		for i := 0; i < ops; i++ {
			_, set, err := bitfield.Decode(img, layerBufferCap)
			if err != nil {
				codecErr = err
				continue
			}
			sink += set.Len()
		}
	})

	mapFrame := runtime.Frame{
		Kind:    runtime.FrameMap,
		Msg:     netmodel.Message{From: 3, To: 4, Sent: 57},
		MapImg:  img,
		MaxSeen: hi,
		Rate:    in.rates[0],
		Sessions: []runtime.SessionInfo{
			{Source: 1, Begin: 0, End: layerS1End},
			{Source: 2, Begin: layerS1End + 1, End: segment.None},
		},
	}
	mapWire := runtime.EncodeFrame(mapFrame)
	dataFrame := runtime.Frame{Kind: runtime.FrameData, Msg: netmodel.Message{From: 3, To: 4, Seg: hi, Sent: 57}}
	d.measure("runtime.encode_map_frame_ns", 5000, func(ops int) {
		for i := 0; i < ops; i++ {
			sink += len(runtime.EncodeFrame(mapFrame))
		}
	})
	d.measure("runtime.decode_map_frame_ns", 5000, func(ops int) {
		for i := 0; i < ops; i++ {
			f, err := runtime.DecodeFrame(mapWire)
			if err != nil {
				codecErr = err
			}
			sink += len(f.MapImg)
		}
	})
	d.measure("runtime.encode_data_frame_ns", 20000, func(ops int) {
		for i := 0; i < ops; i++ {
			sink += len(runtime.EncodeFrame(dataFrame))
		}
	})
	return codecErr
}

// netmodel times the transport heaps per message at a steady in-flight
// depth: every tick injects one message batch with up to 1.5 s of jitter
// (the transatlantic scenario's), so a message flies for a tick or two.
func (d *drivers) netmodel(in *layerInputs) {
	m := netmodel.New(netmodel.Config{PingMS: in.pings, JitterMS: 1500}, 1)
	m.Reserve(layerNetNodes, 4)
	shards := layerNetNodes / 256
	tick := 0
	var sendNS, popNS time.Duration
	var sent, popped int
	step := func() {
		start := time.Now()
		for i := range in.netFrom {
			m.Send(tick, in.netFrom[i], in.netTo[i], segment.ID(tick), in.netJit[i])
		}
		mid := time.Now()
		n := 0
		for s := 0; s < shards; s++ {
			n += m.PopDue(s, tick, func(msg netmodel.Message) { sink += int(msg.To) })
		}
		m.SettleDelivered(n)
		sendNS += mid.Sub(start)
		popNS += time.Since(mid)
		sent += len(in.netFrom)
		popped += n
		tick++
	}
	for i := 0; i < 4; i++ { // reach the steady in-flight depth
		step()
	}
	send, pop := make([]float64, driverReps), make([]float64, driverReps)
	for r := range send {
		id := d.sp.begin("netmodel.send+popdue", d.parent)
		sendNS, popNS, sent, popped = 0, 0, 0, 0
		for i := 0; i < max(1, 8/d.div); i++ {
			step()
		}
		send[r] = float64(sendNS.Nanoseconds()) / float64(sent)
		pop[r] = float64(popNS.Nanoseconds()) / float64(max(1, popped))
		d.sp.end(id)
	}
	d.rows["netmodel.send_ns"] = stats.Median(send)
	d.rows["netmodel.popdue_ns"] = stats.Median(pop)
}

// membership times one join (subscription walk until M peers adopt the
// newcomer) and one leave (local repair) on a 1000-node overlay.
func (d *drivers) membership(seed int64) {
	g, err := trace.Synthesize("layer-membership", 1000, 1, seed).Graph()
	if err != nil {
		panic(err) // Synthesize guarantees dense ids
	}
	overlay.AugmentMinDegree(g, layerSuppliers, rand.New(rand.NewSource(seed)))
	dir := membership.NewDirectory(g, layerSuppliers, rand.New(rand.NewSource(seed^0x3a11ce)))
	join, leave := make([]float64, driverReps), make([]float64, driverReps)
	ops := max(1, 500/d.div)
	joined := make([]overlay.NodeID, ops)
	for r := range join {
		id := d.sp.begin("membership.join+leave", d.parent)
		start := time.Now()
		for i := range joined {
			joined[i], _ = dir.Join()
		}
		mid := time.Now()
		// The newcomers leave again, so the overlay keeps its size.
		for _, n := range joined {
			sink += len(dir.Leave(n))
		}
		join[r] = float64(mid.Sub(start).Nanoseconds()) / float64(ops)
		leave[r] = float64(time.Since(mid).Nanoseconds()) / float64(ops)
		d.sp.end(id)
	}
	d.rows["membership.join_ns"] = stats.Median(join)
	d.rows["membership.leave_ns"] = stats.Median(leave)
}

// transports times one data frame from Send to the receiver's inbox,
// ping-pong, on both transports: by value through a channel, and
// encoded through two loopback UDP sockets.
func (d *drivers) transports(seed int64) error {
	for _, tc := range []struct {
		name string
		tr   runtime.Transport
	}{
		{"runtime.chan_send_recv_ns", runtime.NewChanTransport(seed)},
		{"runtime.udp_send_recv_ns", runtime.NewUDPTransport(seed)},
	} {
		a, err := tc.tr.Open(1)
		if err != nil {
			return err
		}
		b, err := tc.tr.Open(2)
		if err != nil {
			return err
		}
		f := runtime.Frame{Kind: runtime.FrameData, Msg: netmodel.Message{To: 2, Seg: 7}}
		var lost error
		d.measure(tc.name, 2000, func(ops int) {
			deadline := time.After(10 * time.Second) // a lost datagram must not hang the run
			for i := 0; i < ops && lost == nil; i++ {
				a.Send(f)
				select {
				case got := <-b.Recv():
					sink += int(got.Msg.Seg)
				case <-deadline:
					lost = fmt.Errorf("%s: frame not delivered", tc.name)
				}
			}
		})
		tc.tr.Close()
		if lost != nil {
			return lost
		}
	}
	return nil
}
