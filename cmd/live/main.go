// Command live runs event-scripted scenarios as a live system: every
// node a goroutine-backed peer exchanging real frames over a pluggable
// transport (in-process channels or UDP sockets), paced by a wall-clock
// scheduler — the second execution backend next to cmd/scenario's
// simulator. Results are reported in the same per-window metric blocks,
// in scenario seconds, so sim and live runs of one scenario can be read
// side by side; -compare runs both and prints them together.
//
// Examples:
//
//	live -name paper-single-switch
//	live -name paper-single-switch -n 150 -timescale 100
//	live -name lossy-uplink -transport udp
//	live -f conf.scn -algo both
//	live -name paper-single-switch -n 150 -compare  # sim vs live
//	live -list
//
// A scenario can also span several OS processes: one starter runs the
// coordinator plus shard 0, and each -join process takes another shard
// of the peer population. Joiners bootstrap entirely from the starter —
// the scenario text, the shard assignment and every shard's socket
// address all arrive over the authenticated control plane, and a peer
// is reached at the socket of the shard that owns it:
//
//	live -name paper-single-switch -serve 127.0.0.1:9310 -workers 2
//	live -join 127.0.0.1:9310   # run twice, in two other terminals
package main

import (
	"flag"
	"fmt"
	"os"
	"sync/atomic"

	"gossipstream/internal/cluster"
	"gossipstream/internal/obs"
	"gossipstream/internal/runtime"
	"gossipstream/internal/scenario"
	"gossipstream/internal/sim"
)

func main() {
	var (
		file      = flag.String("f", "", "scenario file to run (see internal/scenario for the format)")
		name      = flag.String("name", "", "bundled scenario to run (see -list)")
		list      = flag.Bool("list", false, "list the bundled scenarios")
		algo      = flag.String("algo", "fast", "scheduler: fast, normal or both")
		n         = flag.Int("n", 0, "override the overlay size (crowd batches rescale proportionally)")
		seed      = flag.Int64("seed", 0, "override the scenario seed (0 keeps the file's)")
		transport = flag.String("transport", "chan", "transport: chan (in-process channels) or udp (loopback sockets)")
		timescale = flag.Float64("timescale", 0, "scenario seconds per wall second (0 = default 50; 1 = real time)")
		compare   = flag.Bool("compare", false, "run the simulator first, then the live system, and print both")
		stats     = flag.Bool("stats", false, "print the wall-clock execution stats (periods, overruns, transport counters, denies and duplicates per delivered segment)")
		serve     = flag.String("serve", "", "run as a cluster starter node listening on this address (host:port)")
		join      = flag.String("join", "", "join a cluster starter at this address and host one shard")
		workers   = flag.Int("workers", 2, "with -serve: joining processes to wait for")
		token     = flag.String("token", "gossipstream", "shared control-plane secret (all processes must agree)")

		suspectAfter = flag.Int("suspect-after", 0, "with -serve: ticks without a status before a worker is suspected (0 = default 10)")
		deadAfter    = flag.Int("dead-after", 0, "with -serve: ticks without a status before a worker is declared dead and failed over (0 = default 30)")

		debugAddr  = flag.String("debug", "", "serve the debug HTTP endpoint on this address during the run (/metrics, /healthz, /runz, /debug/pprof)")
		traceFile  = flag.String("trace", "", "write a structured JSONL run trace to this file (schema: docs/OBSERVABILITY.md)")
		statsEvery = flag.Int("stats-every", 0, "print a periodic stats line (transport counters, kernel UDP drops) every N scheduling periods")
	)
	flag.Parse()

	if *list {
		for _, sc := range scenario.Library() {
			fmt.Printf("%-22s n=%-5d events=%-2d %s\n", sc.Name, sc.Nodes, len(sc.Events), sc.Desc)
		}
		return
	}

	if *join != "" {
		runJoin(*join, *token, *seed, *debugAddr, *traceFile, *statsEvery)
		return
	}

	sc, err := scenario.Select(*file, *name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "live: %v\n", err)
		os.Exit(2)
	}
	if *n > 0 {
		sc = sc.Scaled(*n)
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	if *serve != "" {
		runServe(sc, *serve, *algo, *workers, *token, *timescale, *stats,
			*debugAddr, *traceFile, *statsEvery,
			cluster.Tuning{SuspectAfter: *suspectAfter, DeadAfter: *deadAfter})
		return
	}

	factories := map[string]sim.AlgorithmFactory{}
	switch *algo {
	case "fast":
		factories["fast"] = sim.Fast
	case "normal":
		factories["normal"] = sim.Normal
	case "both":
		factories["fast"] = sim.Fast
		factories["normal"] = sim.Normal
	default:
		fmt.Fprintf(os.Stderr, "live: unknown -algo %q (want fast, normal or both)\n", *algo)
		os.Exit(2)
	}

	o, dbg, holder, err := setupObs(*debugAddr, *traceFile)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("scenario %s: %s\n", sc.Name, sc.Desc)
	fmt.Printf("  nodes=%d seed=%d events=%d transport=%s\n\n", sc.Nodes, sc.Seed, len(sc.Events), *transport)

	for _, algoName := range []string{"normal", "fast"} {
		factory, ok := factories[algoName]
		if !ok {
			continue
		}
		if *compare {
			cfg, err := sc.Config(factory)
			if err != nil {
				fatal(err)
			}
			s, err := sim.New(cfg)
			if err != nil {
				fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				fatal(err)
			}
			printResult("sim/"+algoName, res)
			fmt.Println()
		}

		tr := makeTransport(*transport, sc.Seed)
		r, err := runtime.FromScenario(sc, factory, runtime.Options{
			Transport:  tr,
			TimeScale:  *timescale,
			Obs:        o,
			StatsEvery: *statsEvery,
			Logf:       statsLogf(*statsEvery),
		})
		if err != nil {
			fatal(err)
		}
		if holder != nil {
			holder.p.Store(r)
		}
		label := algoName
		if *compare {
			label = "live/" + algoName
		}
		res, err := r.Run()
		if tr != nil {
			tr.Close()
		}
		if err != nil {
			fatal(err)
		}
		printResult(label, res)
		if *stats || *compare {
			printLiveStats(r.Stats())
		}
		fmt.Println()
	}
	if err := o.Close(); err != nil {
		fatal(err)
	}
	dbg.Close()
}

// printLiveStats renders the wall-clock execution account, drop
// counters included (kernel drops stay zero on the channel transport),
// and the peers' account of contention: denies and duplicate deliveries
// per delivered segment.
func printLiveStats(ls runtime.LiveStats) {
	fmt.Printf("  wall: %v for %d periods (%d overruns); transport: %d data frames sent, %d delivered, %d lost, %d inbox-dropped, %d kernel-dropped; %d frames in %d datagrams\n",
		ls.WallDuration.Round(1000000), ls.Periods, ls.Overruns,
		ls.Transport.DataSent, ls.Transport.DataDelivered, ls.Transport.DataLost,
		ls.Transport.InboxDropped, ls.Transport.KernelDrops,
		ls.Transport.Frames, ls.Transport.Datagrams)
	per := func(n int64) float64 { return float64(n) / float64(max(ls.Delivered, 1)) }
	fmt.Printf("  peers: %d segments delivered; %d denies (%.3f per delivered segment), %d duplicate deliveries (%.3f per delivered segment)\n",
		ls.Delivered, ls.Denies, per(ls.Denies), ls.Dupes, per(ls.Dupes))
}

// statsLogf is the sink for the runner's periodic stats lines.
func statsLogf(statsEvery int) func(string, ...any) {
	if statsEvery <= 0 {
		return nil
	}
	return func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}

// runHolder publishes the currently executing runner to the debug
// endpoint's handlers (atomically — the HTTP server reads it from its
// own goroutines).
type runHolder struct {
	p atomic.Pointer[runtime.Runner]
}

// setupObs assembles the observability bundle and, when -debug is set,
// binds the debug HTTP endpoint. Both flags empty means disabled.
func setupObs(debugAddr, traceFile string) (*obs.Obs, *obs.DebugServer, *runHolder, error) {
	if debugAddr == "" && traceFile == "" {
		return nil, nil, nil, nil
	}
	o := &obs.Obs{Reg: obs.NewRegistry()}
	if traceFile != "" {
		tr, err := obs.OpenTrace(traceFile)
		if err != nil {
			return nil, nil, nil, err
		}
		o.Trace = tr
	}
	holder := &runHolder{}
	if debugAddr == "" {
		return o, nil, holder, nil
	}
	healthz := func() any {
		if r := holder.p.Load(); r != nil {
			if snap := r.Snapshot(); snap != nil {
				return map[string]any{"status": "ok", "tick": snap.Tick,
					"duration": snap.Duration, "active_peers": snap.ActivePeers}
			}
		}
		return map[string]any{"status": "starting"}
	}
	runz := func() any {
		if r := holder.p.Load(); r != nil {
			if snap := r.Snapshot(); snap != nil {
				return map[string]any{"run": snap, "metrics": o.Reg.Snapshot()}
			}
		}
		return map[string]any{"status": "no run"}
	}
	dbg, err := obs.StartDebug(debugAddr, o.Reg, healthz, runz)
	if err != nil {
		return nil, nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "live: debug endpoint on http://%s\n", dbg.Addr())
	return o, dbg, holder, nil
}

// clusterObs builds the obs bundle a cluster process hands to
// cluster.Serve/Join (the debug server itself is started inside the
// cluster package, where the merged health view lives).
func clusterObs(debugAddr, traceFile string) *obs.Obs {
	if debugAddr == "" && traceFile == "" {
		return nil
	}
	o := &obs.Obs{Reg: obs.NewRegistry()}
	if traceFile != "" {
		tr, err := obs.OpenTrace(traceFile)
		if err != nil {
			fatal(err)
		}
		o.Trace = tr
	}
	return o
}

// runServe drives a multi-process run from the starter side and prints
// the merged result.
func runServe(sc *scenario.Scenario, listen, algo string, workers int, token string, timescale float64, stats bool, debugAddr, traceFile string, statsEvery int, tuning cluster.Tuning) {
	if algo != "fast" && algo != "normal" {
		fmt.Fprintf(os.Stderr, "live: -serve needs -algo fast or normal (got %q)\n", algo)
		os.Exit(2)
	}
	o := clusterObs(debugAddr, traceFile)
	fmt.Printf("scenario %s: %s\n", sc.Name, sc.Desc)
	fmt.Printf("  nodes=%d seed=%d events=%d shards=%d transport=udp\n\n", sc.Nodes, sc.Seed, len(sc.Events), workers+1)
	res, ls, err := cluster.Serve(cluster.Config{
		Scenario:  sc,
		Algo:      algo,
		Workers:   workers,
		TimeScale: timescale,
		Token:     token,
		Listen:    listen,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
		Obs:        o,
		Debug:      debugAddr,
		StatsEvery: statsEvery,
		Tuning:     tuning,
	})
	if err != nil {
		fatal(err)
	}
	printResult("cluster/"+algo, res)
	if stats {
		printLiveStats(ls)
	}
	if err := o.Close(); err != nil {
		fatal(err)
	}
}

// runJoin runs one joining process; everything else (scenario, shard,
// pacing) arrives from the starter.
func runJoin(starter, token string, seed int64, debugAddr, traceFile string, statsEvery int) {
	o := clusterObs(debugAddr, traceFile)
	res, err := cluster.Join(cluster.JoinConfig{
		Starter: starter,
		Token:   token,
		Seed:    seed,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
		Obs:        o,
		Debug:      debugAddr,
		StatsEvery: statsEvery,
	})
	if err != nil {
		fatal(err)
	}
	printResult("shard-local", res)
	if err := o.Close(); err != nil {
		fatal(err)
	}
}

// makeTransport builds a fresh transport per run; nil leaves the choice
// (and the closing) to the runner. A transport returned here is the
// caller's to close.
func makeTransport(kind string, seed int64) runtime.Transport {
	switch kind {
	case "chan":
		return nil // FromScenario defaults to the channel transport
	case "udp":
		return runtime.NewUDPTransport(seed ^ 0x11fe)
	}
	fmt.Fprintf(os.Stderr, "live: unknown -transport %q (want chan or udp)\n", kind)
	os.Exit(2)
	return nil
}

func printResult(algoName string, res *sim.Result) {
	scenario.FormatResult(os.Stdout, algoName, res)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "live: %v\n", err)
	os.Exit(1)
}
