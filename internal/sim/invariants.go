package sim

import (
	"errors"
	"fmt"
)

// This file is the run-invariant checker: a structural audit of any
// completed Result against the Config that produced it. The determinism
// pins assert that two runs are bit-identical; the checker asserts that
// one run is *internally consistent* — counters conserve, cohorts stay
// inside the population, transport metrics respect the configured delay
// model, and nothing goes negative. Property tests run it over the
// generated-scenario family (internal/scenario/gen.go), so the contract
// holds on an unbounded set of timelines, not just the hand-written
// goldens.

// invariantEps absorbs float accumulation error in the delay bounds: the
// summed delay of a window is a sum of ~1e0-magnitude terms, so parts in
// 1e-9 is far beyond any real violation.
const invariantEps = 1e-9

// CheckInvariants audits a completed Result against the configuration of
// the run that produced it. It returns nil when every invariant holds,
// or an error joining every violation found:
//
//   - non-negative counters everywhere (windows and the transport ledger)
//   - cohort ⊆ population, completion samples ⊆ cohort, per-sample times
//     inside the window
//   - window conservation against the whole-run transport ledger, and the
//     ledger's own closure: injected = delivered + lost + severed +
//     evaporated + in-flight
//   - loss accounting only where loss is possible: NetLost and
//     NetReRequests stay zero unless the run configured baseline loss, a
//     loss burst, or a partition
//   - MeanDeliveryDelay within the netmodel's configured bound
//     (max latency factor × max ping + jitter amplitude), and at or
//     above the model's delay floor — the minimum scaled ping (the
//     near-optimal floor a lossless run cannot beat)
//
// cfg must be the Config the run was built with.
func CheckInvariants(cfg Config, res *Result) error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	checkWindows(cfg, res, cfg.Script.Events, fail)
	checkLedger(cfg, res, cfg.Script.Events, fail)

	return errors.Join(errs...)
}

// CheckLiveInvariants audits a merged live-cluster Result: the window
// checks of CheckInvariants, plus the loss-possibility rule applied
// directly to the windows. The transport ledger is deliberately absent —
// live transports are real sockets (or wall-clock shapers) with no
// conservation ledger, so a live result must not carry one. unscripted
// lists events the run resolved beyond the script — a failover-induced
// crash switch opens a window no scripted event accounts for.
func CheckLiveInvariants(cfg Config, res *Result, unscripted ...Event) error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	for i, w := range res.Windows {
		if w == nil {
			fail("window %d missing from the merge (no shard reported it)", i)
		}
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}

	events := append(append([]Event(nil), cfg.Script.Events...), unscripted...)
	checkWindows(cfg, res, events, fail)

	if res.Audit != nil {
		fail("live result carries a transport ledger")
	}
	if cfg.Net != nil {
		checkLossRule(cfg, res, events, fail)
	}

	return errors.Join(errs...)
}

// checkLossRule applies the loss-possibility rule to a netmodel run's
// windows: NetLost and NetReRequests stay zero unless the run configured
// baseline loss, a loss burst, or a partition. It returns which of the
// two drop causes the run allows.
func checkLossRule(cfg Config, res *Result, events []Event, fail func(string, ...any)) (lossPossible, partitionPossible bool) {
	lossPossible = cfg.Net.Loss > 0
	for _, ev := range events {
		switch ev.Kind {
		case EvLossBurst:
			lossPossible = lossPossible || ev.Prob > 0
		case EvPartition:
			partitionPossible = true
		}
	}
	var lost, reReq int64
	for _, w := range res.Windows {
		lost += w.NetLost
		reReq += w.NetReRequests
	}
	if !lossPossible && !partitionPossible && (lost != 0 || reReq != 0) {
		fail("windows report %d losses and %d re-requests on a lossless, unpartitioned run", lost, reReq)
	}
	return lossPossible, partitionPossible
}

// checkWindows audits every measurement window's internal consistency.
func checkWindows(cfg Config, res *Result, events []Event, fail func(string, ...any)) {
	openers := 0
	for _, ev := range events {
		if ev.Kind == EvSwitchSource || ev.Kind == EvMeasureWindow {
			openers++
		}
	}
	if len(res.Windows) > openers {
		fail("%d windows from %d switch/measure events", len(res.Windows), openers)
	}
	prevTick := -1
	for i, w := range res.Windows {
		where := fmt.Sprintf("window %d (%s, t=%d)", i, w.Kind, w.Tick)
		if w.Window != i {
			fail("%s: position field %d", where, w.Window)
		}
		if w.Tick < prevTick {
			fail("%s: opened before window %d", where, i-1)
		}
		prevTick = w.Tick

		for name, v := range map[string]int64{
			"Nodes": int64(w.Nodes), "Cohort": int64(w.Cohort),
			"UnfinishedS1": int64(w.UnfinishedS1), "UnpreparedS2": int64(w.UnpreparedS2),
			"ControlBits": w.ControlBits, "DataBits": w.DataBits,
			"NetDelivered": w.NetDelivered, "NetLost": w.NetLost,
			"NetReRequests":  w.NetReRequests,
			"PlayedSegments": w.PlayedSegments, "StalledSlots": w.StalledSlots,
			"MeasuredTicks": int64(w.MeasuredTicks), "Tick": int64(w.Tick),
		} {
			if v < 0 {
				fail("%s: negative %s = %d", where, name, v)
			}
		}
		if w.NetDelaySeconds < 0 {
			fail("%s: negative NetDelaySeconds = %v", where, w.NetDelaySeconds)
		}

		// Cohort ⊆ population, samples ⊆ cohort.
		if w.Cohort > w.Nodes {
			fail("%s: cohort %d exceeds population %d", where, w.Cohort, w.Nodes)
		}
		if got := len(w.FinishS1Times) + w.UnfinishedS1; got > w.Cohort {
			fail("%s: finishS1 accounting %d exceeds cohort %d", where, got, w.Cohort)
		}
		if got := len(w.PrepareS2Times) + w.UnpreparedS2; got > w.Cohort {
			fail("%s: prepareS2 accounting %d exceeds cohort %d", where, got, w.Cohort)
		}
		if len(w.StartS2Times) > w.Cohort {
			fail("%s: %d startS2 samples for cohort %d", where, len(w.StartS2Times), w.Cohort)
		}
		if w.Kind == "measure" &&
			(len(w.FinishS1Times)+len(w.PrepareS2Times)+len(w.StartS2Times)+w.UnfinishedS1+w.UnpreparedS2 > 0) {
			fail("%s: switch samples on a measure window", where)
		}

		// Every completion sample lands inside the window: samples are
		// end-of-period times relative to the opening instant, so they sit
		// in (0, MeasuredTicks·τ].
		limit := float64(w.MeasuredTicks)*Tau + invariantEps
		for _, samples := range [][]float64{w.FinishS1Times, w.PrepareS2Times, w.StartS2Times} {
			for _, v := range samples {
				if v <= 0 || v > limit {
					fail("%s: completion sample %v outside (0, %v]", where, v, limit)
				}
			}
		}

		if cfg.Net == nil {
			if w.NetDelivered != 0 || w.NetLost != 0 || w.NetReRequests != 0 || w.NetDelaySeconds != 0 {
				fail("%s: transport counters on a run without Config.Net", where)
			}
		} else if w.NetDelivered == 0 && w.NetDelaySeconds != 0 {
			fail("%s: delay %v without deliveries", where, w.NetDelaySeconds)
		}
	}
}

// checkLedger audits the whole-run transport ledger: conservation, the
// per-window counters against the run totals, the loss-possibility rule,
// and the delay bound/floor of every window's mean delivery delay.
func checkLedger(cfg Config, res *Result, events []Event, fail func(string, ...any)) {
	if cfg.Net == nil {
		if res.Audit != nil {
			fail("transport ledger present on a run without Config.Net")
		}
		return
	}
	a := res.Audit
	if a == nil {
		fail("netmodel run without a transport ledger")
		return
	}
	for name, v := range map[string]int64{
		"Injected": a.Injected, "Delivered": a.Delivered, "Lost": a.Lost,
		"Severed": a.Severed, "Evaporated": a.Evaporated, "InFlight": a.InFlight,
	} {
		if v < 0 {
			fail("ledger: negative %s = %d", name, v)
		}
	}
	if out := a.Delivered + a.Lost + a.Severed + a.Evaporated + a.InFlight; a.Injected != out {
		fail("ledger does not conserve: injected %d, accounted %d (delivered %d + lost %d + severed %d + evaporated %d + in-flight %d)",
			a.Injected, out, a.Delivered, a.Lost, a.Severed, a.Evaporated, a.InFlight)
	}

	// The windows see a subset of the run: their totals cannot exceed the
	// ledger's. (Window NetLost counts losses and severs together.)
	var winDelivered, winLost, winReReq int64
	for _, w := range res.Windows {
		winDelivered += w.NetDelivered
		winLost += w.NetLost
		winReReq += w.NetReRequests
	}
	if winDelivered > a.Delivered {
		fail("windows delivered %d, run total %d", winDelivered, a.Delivered)
	}
	if winLost > a.Lost+a.Severed {
		fail("windows lost %d, run total %d", winLost, a.Lost+a.Severed)
	}
	if winReReq > a.Lost+a.Severed {
		fail("windows re-requested %d segments, only %d messages were ever dropped", winReReq, a.Lost+a.Severed)
	}

	// Loss accounting only where loss is possible.
	lossPossible, partitionPossible := checkLossRule(cfg, res, events, fail)
	if !lossPossible && a.Lost != 0 {
		fail("ledger: %d loss-drawn drops on a run with no configured loss", a.Lost)
	}
	if !partitionPossible && a.Severed != 0 {
		fail("ledger: %d severed messages on a run with no partition", a.Severed)
	}

	// Delay bound and floor. Every message's delay is
	// latFactor·(ping_a+ping_b)/2 + jitter, so the mean of any window sits
	// between minLat·minPing (the near-optimal floor: no schedule can beat
	// the wire) and maxLat·maxPing + jitter amplitude.
	maxLat, minLat := 1.0, 1.0
	for _, ev := range events {
		if ev.Kind == EvLatencyShift {
			maxLat = max(maxLat, ev.Factor)
			minLat = min(minLat, ev.Factor)
		}
	}
	nc := cfg.Net.Defaulted()
	minPing, maxPing := nc.DefaultPingMS, nc.DefaultPingMS
	for _, p := range nc.PingMS {
		if p < minPing {
			minPing = p
		}
		if p > maxPing {
			maxPing = p
		}
	}
	bound := (maxLat*float64(maxPing)+nc.JitterMS)/1000 + invariantEps
	floor := minLat*float64(minPing)/1000 - invariantEps
	for i, w := range res.Windows {
		if w.NetDelivered == 0 {
			continue
		}
		mean := w.MeanDeliveryDelay()
		if mean > bound {
			fail("window %d: mean delivery delay %v above the model bound %v", i, mean, bound)
		}
		if mean < floor {
			fail("window %d: mean delivery delay %v below the model floor %v", i, mean, floor)
		}
	}
}
