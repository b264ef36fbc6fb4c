// Package chaos is the deterministic fault-injection layer for the
// cluster runtime: a seeded FaultPlan scripts worker failures (kill at
// a tick, hang for a stretch, drop control acks, delay status reports),
// and an Injector executes one worker's share of the plan at the
// cluster agent's seams. The same faults drive two test styles: the
// in-process harness (the agent consults its Injector every tick) and
// the OS-process SIGKILL driver in proc.go, which watches a worker's
// stats stream and kills the real process at the scripted tick.
//
// The package is dependency-free by design — internal/cluster imports
// it, never the other way around.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// Kind enumerates injectable faults.
type Kind uint8

const (
	// Kill fail-stops the worker at the fault's tick: the agent aborts
	// its peers, closes its transport (the process's one socket) and
	// returns ErrKilled — from the cluster's point of view, a crash.
	Kill Kind = iota + 1
	// Hang wedges the worker's run loop for Ticks scheduling periods
	// (statuses stop; the transport's reader keeps answering keepalives
	// through the control link).
	Hang
	// DropAcks suppresses the worker's outbound control acks for Ticks
	// periods; directives still apply, but the coordinator's reliable
	// layer must ride its retries until the window closes.
	DropAcks
	// DelayReports holds every status cast inside the window [Tick,
	// Tick+Ticks) back by Ticks periods — a late, bursty status stream.
	DelayReports
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Kill:
		return "kill"
	case Hang:
		return "hang"
	case DropAcks:
		return "drop-acks"
	case DelayReports:
		return "delay-reports"
	}
	return "fault(?)"
}

// ErrKilled is the error a chaos-killed agent returns — the expected
// outcome tests assert with errors.Is.
var ErrKilled = errors.New("chaos: fail-stop injected")

// Fault is one scripted failure: shard Shard suffers Kind at tick Tick,
// lasting Ticks periods where the kind has a duration.
type Fault struct {
	Shard int
	Tick  int
	Kind  Kind
	Ticks int
}

// Plan is a scripted fault timeline for one cluster run.
type Plan struct {
	Faults []Fault
}

// Validate rejects malformed plans (unknown kinds, negative ticks,
// missing durations).
func (p *Plan) Validate() error {
	for i, f := range p.Faults {
		if f.Kind < Kill || f.Kind > DelayReports {
			return fmt.Errorf("chaos: fault %d: unknown kind %d", i, f.Kind)
		}
		if f.Shard < 0 || f.Tick < 0 {
			return fmt.Errorf("chaos: fault %d: negative shard or tick", i)
		}
		if f.Kind != Kill && f.Ticks <= 0 {
			return fmt.Errorf("chaos: fault %d: %v needs a positive duration", i, f.Kind)
		}
	}
	return nil
}

// Generate draws a seeded random plan over worker shards 1..shards-1
// with fault ticks inside the first half of the horizon — the same
// plan for the same seed on every run and machine.
func Generate(seed int64, shards, horizon int) *Plan {
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{}
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		f := Fault{
			Shard: 1 + rng.Intn(shards-1),
			Tick:  horizon/10 + rng.Intn(horizon/2-horizon/10+1),
			Kind:  Kind(1 + rng.Intn(4)),
			Ticks: 2 + rng.Intn(9),
		}
		p.Faults = append(p.Faults, f)
	}
	return p
}

// Step is what an Injector tells the agent to do this tick.
type Step struct {
	Kill      bool
	HangTicks int
}

// Injector executes one shard's share of a Plan. Step is called from
// the agent's run loop once per tick; DropAcksActive is consulted from
// the transport's reader goroutine, hence the lock.
type Injector struct {
	mu      sync.Mutex
	shard   int
	pending []Fault // this shard's faults, sorted by tick
	killed  bool

	tick       int
	acksUntil  int
	delayUntil int
	delayTicks int
}

// NewInjector builds the injector for one shard; faults for other
// shards are ignored.
func NewInjector(p *Plan, shard int) *Injector {
	in := &Injector{shard: shard}
	if p == nil {
		return in
	}
	for _, f := range p.Faults {
		if f.Shard == shard {
			in.pending = append(in.pending, f)
		}
	}
	sort.SliceStable(in.pending, func(i, j int) bool {
		return in.pending[i].Tick < in.pending[j].Tick
	})
	return in
}

// Step fires every fault due at or before the tick and returns the run
// loop's marching orders. Windowed faults (DropAcks, DelayReports)
// arm their windows here and are enforced by the accessors below.
func (in *Injector) Step(tick int) Step {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.tick = tick
	var st Step
	for len(in.pending) > 0 && in.pending[0].Tick <= tick {
		f := in.pending[0]
		in.pending = in.pending[1:]
		switch f.Kind {
		case Kill:
			st.Kill = true
			in.killed = true
		case Hang:
			st.HangTicks += f.Ticks
		case DropAcks:
			if until := tick + f.Ticks; until > in.acksUntil {
				in.acksUntil = until
			}
		case DelayReports:
			in.delayUntil = tick + f.Ticks
			in.delayTicks = f.Ticks
		}
	}
	return st
}

// DropAcksActive reports whether an ack-drop window covers the last
// stepped tick (reader-goroutine safe).
func (in *Injector) DropAcksActive() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.tick < in.acksUntil
}

// StatusDelay returns how many periods to hold this tick's status cast
// back (0 outside any delay window).
func (in *Injector) StatusDelay(tick int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if tick < in.delayUntil {
		return in.delayTicks
	}
	return 0
}

// Killed reports whether the kill fault has fired.
func (in *Injector) Killed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.killed
}
