package engine

import (
	"fmt"
	"runtime"
	"time"

	"gossipstream/internal/obs"
)

// Phase is one named stage of a tick: generate, refill, plan, serve,
// deliver, playback, churn, record. Run executes the stage over the whole
// population (internally sharded or serial — the pipeline does not care).
type Phase struct {
	Name string
	Run  func()
}

// Pipeline executes a fixed sequence of phases once per tick and
// accumulates wall-clock time per phase — and, when memory capture is
// enabled, heap bytes and allocation counts per phase. The
// instrumentation is observational only — it never feeds back into
// simulation state, so it cannot perturb determinism.
type Pipeline struct {
	phases []Phase
	nanos  []int64
	bytes  []uint64
	allocs []uint64
	ticks  int64
	mem    bool

	// Observability sinks (nil when disabled — see Observe). The phase
	// counters are registered once; the run loop only touches atomics.
	obsPhase []*obs.Counter
	obsTick  *obs.Histogram
	obsTicks *obs.Counter
	chrome   *obs.ChromeTrace
	tid      int
}

// NewPipeline assembles a pipeline from its phases, in execution order.
func NewPipeline(phases ...Phase) *Pipeline {
	return &Pipeline{phases: phases, nanos: make([]int64, len(phases))}
}

// CaptureMem toggles per-phase allocation capture. Each phase boundary
// then costs a runtime.ReadMemStats (a stop-the-world operation), so the
// capture is off by default and meant for diagnostic runs — enabling it
// perturbs wall-clock timings a little, never results.
func (p *Pipeline) CaptureMem(on bool) {
	p.mem = on
	if on && p.bytes == nil {
		p.bytes = make([]uint64, len(p.phases))
		p.allocs = make([]uint64, len(p.phases))
	}
}

// Observe attaches metric and span sinks. Each phase gets a
// gossip_phase_ns_total{phase="..."} counter; with tickLevel set the
// pipeline also maintains gossip_tick_ns / gossip_ticks_total (the
// tick-level pipeline owns those; sub-pipelines must not). chrome spans
// land on row tid. Call once at setup, before Run; any argument may be
// nil.
func (p *Pipeline) Observe(reg *obs.Registry, chrome *obs.ChromeTrace, tid int, tickLevel bool) {
	if reg != nil {
		p.obsPhase = make([]*obs.Counter, len(p.phases))
		for i, ph := range p.phases {
			p.obsPhase[i] = reg.Counter(
				fmt.Sprintf(`gossip_phase_ns_total{phase=%q}`, ph.Name),
				"cumulative wall-clock nanoseconds spent in each pipeline phase")
		}
		if tickLevel {
			p.obsTick = reg.Histogram("gossip_tick_ns", "wall-clock duration of one tick of the phase pipeline")
			p.obsTicks = reg.Counter("gossip_ticks_total", "scheduling periods executed")
		}
	}
	p.chrome = chrome
	p.tid = tid
}

// Run executes every phase in order (one simulated tick).
func (p *Pipeline) Run() {
	if p.mem {
		p.runWithMem()
		return
	}
	tickStart := time.Now()
	for i := range p.phases {
		start := time.Now()
		p.phases[i].Run()
		d := time.Since(start)
		p.nanos[i] += int64(d)
		if p.obsPhase != nil {
			p.obsPhase[i].Add(int64(d))
		}
		p.chrome.Span(p.phases[i].Name, p.tid, p.ticks, start, d)
	}
	p.ticks++
	if p.obsTick != nil {
		p.obsTick.Observe(int64(time.Since(tickStart)))
		p.obsTicks.Inc()
	}
}

// runWithMem is the capture variant of Run: cumulative-counter deltas
// (TotalAlloc, Mallocs) bracket each phase, so per-phase numbers add up
// exactly to the tick's total allocation.
func (p *Pipeline) runWithMem() {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tickStart := time.Now()
	for i := range p.phases {
		start := time.Now()
		p.phases[i].Run()
		d := time.Since(start)
		p.nanos[i] += int64(d)
		if p.obsPhase != nil {
			p.obsPhase[i].Add(int64(d))
		}
		p.chrome.Span(p.phases[i].Name, p.tid, p.ticks, start, d)
		runtime.ReadMemStats(&after)
		p.bytes[i] += after.TotalAlloc - before.TotalAlloc
		p.allocs[i] += after.Mallocs - before.Mallocs
		before = after
	}
	p.ticks++
	if p.obsTick != nil {
		p.obsTick.Observe(int64(time.Since(tickStart)))
		p.obsTicks.Inc()
	}
}

// PhaseTiming reports the accumulated cost of one phase. Bytes and
// Allocs are zero unless memory capture was enabled on the pipeline.
type PhaseTiming struct {
	Name  string
	Total time.Duration
	// Bytes and Allocs are the phase's cumulative heap allocation over
	// every captured tick (runtime.MemStats TotalAlloc/Mallocs deltas).
	Bytes  uint64
	Allocs uint64
}

// Timings returns the per-phase accumulated wall-clock costs, in phase
// order, over the Ticks() executed so far.
func (p *Pipeline) Timings() []PhaseTiming {
	out := make([]PhaseTiming, len(p.phases))
	for i, ph := range p.phases {
		out[i] = PhaseTiming{Name: ph.Name, Total: time.Duration(p.nanos[i])}
		if p.bytes != nil {
			out[i].Bytes = p.bytes[i]
			out[i].Allocs = p.allocs[i]
		}
	}
	return out
}

// Ticks returns how many times the pipeline has run.
func (p *Pipeline) Ticks() int64 { return p.ticks }
