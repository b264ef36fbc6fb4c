package scenario

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gossipstream/internal/overlay"
	"gossipstream/internal/sim"
)

// Parse reads the plain-text scenario format. The format is line
// oriented; '#' starts a comment, blank lines are ignored. Header
// directives set the base environment, `at` lines schedule events:
//
//	scenario serial-handoff-chain
//	desc The floor passes along four speakers.
//	nodes 400
//	m 5
//	seed 7
//	first 3              # pin the initial source (default: auto-pick)
//	spread 25            # arrival stagger, ticks
//	horizon 120          # default per-switch measurement horizon
//	duration 0           # 0 = derive from the timeline
//	churn 0.02 0.02      # baseline leave/join fractions (join defaults to leave)
//	perlink              # per-link capacity model (default: shared outbound)
//	qs 50
//	net loss=0.05 jitter=200 ping=80   # message-level transport model
//
// The net directive enables the netmodel transport: per-link delivery
// delay derived from the synthesized trace's ping times, per-message
// loss (`loss`, baseline probability), uniform jitter (`jitter`,
// milliseconds) and the default ping of nodes without a trace record
// (`ping`, milliseconds; churn joiners and crowd members). All options
// are optional — a bare `net` turns on the transport with trace delays
// only. The latency/lossburst/partition/heal events require it.
//
//	at 40  switch to=41            # planned handoff to a pinned speaker
//	at 110 switch                  # planned handoff, random successor
//	at 150 switch failure          # the speaker crashes; random successor
//	at 60  switch to=3 horizon=90  # per-window horizon override
//	at 35  crowd count=150 backlog=200
//	at 45  churnburst for=30 leave=0.10 join=0.05
//	at 85  bandwidth factor=0.7
//	at 160 measure for=25
//	at 55  latency factor=20       # latency storm (propagation ×20; 1 restores)
//	at 65  lossburst for=30 p=0.25 # loss probability override for 30 ticks
//	at 75  partition frac=0.5      # sever the overlay in two (seeded split)
//	at 76  partition frac=0.5 by=ping  # latency-clustered sides (trace ping)
//	at 95  heal                    # end the partition
//	at 130 demote node=3           # ex-source 3 back to listener (omit node:
//	                               # the most recently retired source)
//
// Parse and Write round-trip: Write emits the canonical form of exactly
// this grammar. docs/SCENARIOS.md is the full reference; a drift test
// keeps it and this parser in lockstep.
func Parse(r io.Reader) (*Scenario, error) {
	sc := &Scenario{}
	scan := bufio.NewScanner(r)
	lineNo := 0
	for scan.Scan() {
		lineNo++
		line := scan.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if err := sc.parseLine(fields); err != nil {
			return nil, fmt.Errorf("scenario: line %d: %w", lineNo, err)
		}
	}
	if err := scan.Err(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

func (sc *Scenario) parseLine(fields []string) error {
	key, args := fields[0], fields[1:]
	needOne := func() (string, error) {
		if len(args) != 1 {
			return "", fmt.Errorf("%s takes one argument, got %d", key, len(args))
		}
		return args[0], nil
	}
	intArg := func() (int, error) {
		a, err := needOne()
		if err != nil {
			return 0, err
		}
		v, err := strconv.Atoi(a)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", key, err)
		}
		return v, nil
	}
	var err error
	switch key {
	case "scenario":
		sc.Name, err = needOne()
		return err
	case "desc":
		sc.Desc = strings.Join(args, " ")
		return nil
	case "nodes":
		sc.Nodes, err = intArg()
		return err
	case "m":
		sc.M, err = intArg()
		return err
	case "seed":
		a, err := needOne()
		if err != nil {
			return err
		}
		sc.Seed, err = strconv.ParseInt(a, 10, 64)
		return err
	case "first":
		v, err := intArg()
		sc.First = overlay.NodeID(v)
		return err
	case "spread":
		sc.Spread, err = intArg()
		return err
	case "horizon":
		sc.Horizon, err = intArg()
		return err
	case "duration":
		sc.Duration, err = intArg()
		return err
	case "qs":
		sc.Qs, err = intArg()
		return err
	case "perlink":
		if len(args) != 0 {
			return fmt.Errorf("perlink takes no arguments")
		}
		sc.PerLink = true
		return nil
	case "churn":
		if len(args) < 1 || len(args) > 2 {
			return fmt.Errorf("churn takes 1 or 2 fractions")
		}
		if sc.ChurnLeave, err = strconv.ParseFloat(args[0], 64); err != nil {
			return err
		}
		sc.ChurnJoin = sc.ChurnLeave
		if len(args) == 2 {
			sc.ChurnJoin, err = strconv.ParseFloat(args[1], 64)
		}
		return err
	case "net":
		return sc.parseNet(args)
	case "at":
		return sc.parseEvent(args)
	}
	return fmt.Errorf("unknown directive %q", key)
}

// parseNet handles the net directive's k=v options.
func (sc *Scenario) parseNet(args []string) error {
	sc.Net = true
	for _, a := range args {
		k, v, found := strings.Cut(a, "=")
		var err error
		switch k {
		case "loss":
			sc.NetLoss, err = strconv.ParseFloat(v, 64)
		case "jitter":
			sc.NetJitterMS, err = strconv.ParseFloat(v, 64)
		case "ping":
			sc.NetPingMS, err = strconv.Atoi(v)
		default:
			return fmt.Errorf("net: unknown option %q", k)
		}
		if !found {
			return fmt.Errorf("net: want key=value, got %q", a)
		}
		if err != nil {
			return fmt.Errorf("net: %w", err)
		}
	}
	return nil
}

func (sc *Scenario) parseEvent(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("at takes a tick and a verb")
	}
	tick, err := strconv.Atoi(args[0])
	if err != nil {
		return fmt.Errorf("at: bad tick %q", args[0])
	}
	verb := args[1]
	// Parse k=v options and bare flags.
	opts := map[string]string{}
	for _, a := range args[2:] {
		k, v, found := strings.Cut(a, "=")
		if !found {
			v = "" // bare flag (failure)
		}
		if _, dup := opts[k]; dup {
			return fmt.Errorf("%s: duplicate option %q", verb, k)
		}
		opts[k] = v
	}
	take := func(k string) (string, bool) {
		v, ok := opts[k]
		delete(opts, k)
		return v, ok
	}
	takeInt := func(k string, def int) (int, error) {
		v, ok := take(k)
		if !ok {
			return def, nil
		}
		return strconv.Atoi(v)
	}
	takeFloat := func(k string, def float64) (float64, error) {
		v, ok := take(k)
		if !ok {
			return def, nil
		}
		return strconv.ParseFloat(v, 64)
	}

	var ev sim.Event
	switch verb {
	case "switch":
		to, err := takeInt("to", -1)
		if err != nil {
			return err
		}
		horizon, err := takeInt("horizon", 0)
		if err != nil {
			return err
		}
		_, failure := take("failure")
		if to < -1 {
			// Every negative pin means "pick at random"; canonicalize to -1
			// so Write (which omits the default) round-trips the event.
			to = -1
		}
		ev = sim.SwitchAt(tick, overlay.NodeID(to))
		ev.Failure = failure
		ev.Horizon = horizon
	case "crowd":
		count, err := takeInt("count", 0)
		if err != nil {
			return err
		}
		backlog, err := takeInt("backlog", 0)
		if err != nil {
			return err
		}
		ev = sim.FlashCrowdAt(tick, count, backlog)
	case "churnburst":
		ticks, err := takeInt("for", 0)
		if err != nil {
			return err
		}
		leave, err := takeFloat("leave", 0)
		if err != nil {
			return err
		}
		join, err := takeFloat("join", leave)
		if err != nil {
			return err
		}
		ev = sim.ChurnBurstAt(tick, ticks, leave, join)
	case "bandwidth":
		factor, err := takeFloat("factor", 0)
		if err != nil {
			return err
		}
		ev = sim.BandwidthShiftAt(tick, factor)
	case "measure":
		ticks, err := takeInt("for", 0)
		if err != nil {
			return err
		}
		ev = sim.MeasureAt(tick, ticks)
	case "latency":
		factor, err := takeFloat("factor", 0)
		if err != nil {
			return err
		}
		ev = sim.LatencyShiftAt(tick, factor)
	case "lossburst":
		ticks, err := takeInt("for", 0)
		if err != nil {
			return err
		}
		prob, err := takeFloat("p", 0)
		if err != nil {
			return err
		}
		ev = sim.LossBurstAt(tick, ticks, prob)
	case "partition":
		frac, err := takeFloat("frac", 0)
		if err != nil {
			return err
		}
		by, hasBy := take("by")
		switch {
		case !hasBy:
			ev = sim.PartitionAt(tick, frac)
		case by == "ping":
			ev = sim.PartitionByPingAt(tick, frac)
		default:
			return fmt.Errorf("partition: unknown split %q (want by=ping)", by)
		}
	case "heal":
		ev = sim.HealAt(tick)
	case "demote":
		node, err := takeInt("node", -1)
		if err != nil {
			return err
		}
		if node < -1 {
			// Same canonicalization as switch pins: any negative means "the
			// last retired speaker", which Write spells by omission.
			node = -1
		}
		ev = sim.DemoteAt(tick, overlay.NodeID(node))
	default:
		return fmt.Errorf("unknown event verb %q", verb)
	}
	for k := range opts {
		return fmt.Errorf("%s: unknown option %q", verb, k)
	}
	sc.Events = append(sc.Events, ev)
	return nil
}

// Write emits the scenario in canonical text form; Parse reads it back
// to an identical Scenario (the round-trip regression in format_test.go
// is the format's compatibility contract).
func (sc *Scenario) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "scenario %s\n", sc.Name)
	if sc.Desc != "" {
		fmt.Fprintf(bw, "desc %s\n", sc.Desc)
	}
	fmt.Fprintf(bw, "nodes %d\n", sc.Nodes)
	if sc.M != 0 {
		fmt.Fprintf(bw, "m %d\n", sc.M)
	}
	fmt.Fprintf(bw, "seed %d\n", sc.Seed)
	if sc.First != 0 {
		fmt.Fprintf(bw, "first %d\n", sc.First)
	}
	if sc.Spread != 0 {
		fmt.Fprintf(bw, "spread %d\n", sc.Spread)
	}
	if sc.Horizon != 0 {
		fmt.Fprintf(bw, "horizon %d\n", sc.Horizon)
	}
	if sc.Duration != 0 {
		fmt.Fprintf(bw, "duration %d\n", sc.Duration)
	}
	if sc.ChurnLeave != 0 || sc.ChurnJoin != 0 {
		fmt.Fprintf(bw, "churn %s %s\n", ftoa(sc.ChurnLeave), ftoa(sc.ChurnJoin))
	}
	if sc.PerLink {
		fmt.Fprintln(bw, "perlink")
	}
	if sc.Qs != 0 {
		fmt.Fprintf(bw, "qs %d\n", sc.Qs)
	}
	if sc.Net {
		fmt.Fprint(bw, "net")
		if sc.NetLoss != 0 {
			fmt.Fprintf(bw, " loss=%s", ftoa(sc.NetLoss))
		}
		if sc.NetJitterMS != 0 {
			fmt.Fprintf(bw, " jitter=%s", ftoa(sc.NetJitterMS))
		}
		if sc.NetPingMS != 0 {
			fmt.Fprintf(bw, " ping=%d", sc.NetPingMS)
		}
		fmt.Fprintln(bw)
	}
	if len(sc.Events) > 0 {
		fmt.Fprintln(bw)
	}
	for _, ev := range sc.Events {
		switch ev.Kind {
		case sim.EvSwitchSource:
			fmt.Fprintf(bw, "at %d switch", ev.Tick)
			if ev.To >= 0 {
				fmt.Fprintf(bw, " to=%d", ev.To)
			}
			if ev.Failure {
				fmt.Fprint(bw, " failure")
			}
			if ev.Horizon != 0 {
				fmt.Fprintf(bw, " horizon=%d", ev.Horizon)
			}
			fmt.Fprintln(bw)
		case sim.EvFlashCrowd:
			fmt.Fprintf(bw, "at %d crowd count=%d", ev.Tick, ev.Count)
			if ev.Backlog != 0 {
				fmt.Fprintf(bw, " backlog=%d", ev.Backlog)
			}
			fmt.Fprintln(bw)
		case sim.EvChurnBurst:
			fmt.Fprintf(bw, "at %d churnburst for=%d leave=%s join=%s\n",
				ev.Tick, ev.Ticks, ftoa(ev.Leave), ftoa(ev.Join))
		case sim.EvBandwidthShift:
			fmt.Fprintf(bw, "at %d bandwidth factor=%s\n", ev.Tick, ftoa(ev.Factor))
		case sim.EvMeasureWindow:
			fmt.Fprintf(bw, "at %d measure for=%d\n", ev.Tick, ev.Ticks)
		case sim.EvLatencyShift:
			fmt.Fprintf(bw, "at %d latency factor=%s\n", ev.Tick, ftoa(ev.Factor))
		case sim.EvLossBurst:
			fmt.Fprintf(bw, "at %d lossburst for=%d p=%s\n", ev.Tick, ev.Ticks, ftoa(ev.Prob))
		case sim.EvPartition:
			fmt.Fprintf(bw, "at %d partition frac=%s", ev.Tick, ftoa(ev.Frac))
			if ev.ByPing {
				fmt.Fprint(bw, " by=ping")
			}
			fmt.Fprintln(bw)
		case sim.EvHeal:
			fmt.Fprintf(bw, "at %d heal\n", ev.Tick)
		case sim.EvDemoteSource:
			fmt.Fprintf(bw, "at %d demote", ev.Tick)
			if ev.To >= 0 {
				fmt.Fprintf(bw, " node=%d", ev.To)
			}
			fmt.Fprintln(bw)
		default:
			return fmt.Errorf("scenario: cannot serialize event kind %v", ev.Kind)
		}
	}
	return bw.Flush()
}

// ftoa formats a float so ParseFloat reads back the identical value.
func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
