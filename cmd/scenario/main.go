// Command scenario runs event-scripted simulations: declarative
// timelines of source handoffs and crashes, churn bursts, flash crowds
// and bandwidth shifts, each switch reporting its own metrics block.
// Scenarios come from the bundled library (-name, -list) or a plain-text
// file (-f; -dump prints the canonical form of any scenario).
//
// Examples:
//
//	scenario -list
//	scenario -name serial-handoff-chain
//	scenario -name churn-storm -algo both -n 200
//	scenario -f conf.scn -workers -1 -timings
//	scenario -name source-crash -dump > crash.scn
//	scenario -compare -n 150 # fast-vs-normal table over the whole library
//	scenario -smoke          # run every bundled scenario small (CI)
//	scenario -gen -seed 42   # synthesize a valid scenario from a seed
//	scenario -gen -seed 42 | scenario -f /dev/stdin
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"gossipstream/internal/experiment"
	"gossipstream/internal/obs"
	"gossipstream/internal/scenario"
	"gossipstream/internal/sim"
)

func main() {
	var (
		file    = flag.String("f", "", "scenario file to run (see internal/scenario for the format)")
		name    = flag.String("name", "", "bundled scenario to run (see -list)")
		list    = flag.Bool("list", false, "list the bundled scenarios")
		dump    = flag.Bool("dump", false, "print the selected scenario's canonical text instead of running it")
		algo    = flag.String("algo", "fast", "scheduler: fast, normal or both")
		n       = flag.Int("n", 0, "override the overlay size (crowd batches rescale proportionally)")
		seed    = flag.Int64("seed", 0, "override the scenario seed (0 keeps the file's)")
		workers = flag.Int("workers", 0, "engine workers (0/1 = one worker, inline; <0 = GOMAXPROCS); results are identical at any setting")
		timings = flag.Bool("timings", false, "print the per-phase wall-clock and allocation breakdown")
		smoke   = flag.Bool("smoke", false, "run every bundled scenario at small scale and verify its windows (CI guard)")
		compare = flag.Bool("compare", false, "sweep fast vs normal over the whole bundled library (experiment.ScenarioSweep)")
		gen     = flag.Bool("gen", false, "synthesize a scenario from -seed (with -n as the overlay size) and print its canonical text")

		traceFile   = flag.String("trace", "", "write a structured JSONL run trace to this file (schema: docs/OBSERVABILITY.md)")
		chromeFile  = flag.String("trace-chrome", "", "write engine per-phase spans in Chrome trace-event format (open in chrome://tracing or ui.perfetto.dev)")
		timingsJSON = flag.String("timings-json", "", `write the per-phase timing breakdown as JSON to this file ("-" for stdout)`)
		validate    = flag.String("validate-trace", "", "validate a JSONL trace file against the schema and exit (CI guard)")
	)
	flag.Parse()

	if *validate != "" {
		f, err := os.Open(*validate)
		if err != nil {
			fatal(err)
		}
		n, err := obs.ValidateTrace(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *validate, err))
		}
		fmt.Printf("trace ok: %d events\n", n)
		return
	}

	if *list {
		for _, sc := range scenario.Library() {
			fmt.Printf("%-22s n=%-5d events=%-2d %s\n", sc.Name, sc.Nodes, len(sc.Events), sc.Desc)
		}
		return
	}
	if *smoke {
		runSmoke()
		return
	}
	if *gen {
		// The generator is deterministic: the same -seed (and -n) prints
		// byte-identical text on every run, so a seed is a shareable,
		// reproducible scenario reference.
		sc := scenario.Generate(scenario.GenOptions{Seed: *seed, Nodes: *n})
		if err := sc.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
			os.Exit(2)
		}
		if err := sc.Write(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *compare {
		scs := scenario.Library()
		if *n > 0 {
			for i, sc := range scs {
				scs[i] = sc.Scaled(*n)
			}
		}
		outcomes, err := experiment.ScenarioSweep{Scenarios: scs, SimWorkers: *workers}.Run()
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiment.FormatScenarioSweep(outcomes))
		return
	}

	sc, err := scenario.Select(*file, *name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
		os.Exit(2)
	}
	if *n > 0 {
		sc = sc.Scaled(*n)
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *dump {
		if err := sc.Write(os.Stdout); err != nil {
			fatal(err)
		}
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
		fmt.Fprintf(os.Stderr, "scenario: unknown -algo %q (want fast, normal or both)\n", *algo)
		os.Exit(2)
	}

	o, err := buildObs(*traceFile, *chromeFile)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("scenario %s: %s\n", sc.Name, sc.Desc)
	fmt.Printf("  nodes=%d seed=%d events=%d\n\n", sc.Nodes, sc.Seed, len(sc.Events))
	var timingOut []runTimings
	for _, algoName := range []string{"normal", "fast"} {
		factory, ok := factories[algoName]
		if !ok {
			continue
		}
		cfg, err := sc.Config(factory)
		if err != nil {
			fatal(err)
		}
		cfg.Workers = *workers
		cfg.Obs = o
		s, err := sim.New(cfg)
		if err != nil {
			fatal(err)
		}
		s.CapturePhaseMem(*timings || *timingsJSON != "")
		// The run-start line carries the run's identity; the simulation
		// emits the per-tick stream and the closing run-end itself.
		o.Tracer().Emit(obs.TraceEvent{T: obs.EvRunStart,
			Scenario: sc.Name, Algo: algoName, Nodes: sc.Nodes, Seed: sc.Seed})
		res, err := s.Run()
		if err != nil {
			fatal(err)
		}
		scenario.FormatResult(os.Stdout, algoName, res) // the report format shared with cmd/live
		if *timings {
			fmt.Printf("  phase timings (%d workers):\n", s.Workers())
			for _, t := range s.PhaseTimings() {
				fmt.Printf("    %-10s %12v %14d B %10d allocs\n", t.Name, t.Total, t.Bytes, t.Allocs)
			}
		}
		if *timingsJSON != "" {
			rt := runTimings{Scenario: sc.Name, Algo: algoName, Workers: s.Workers()}
			for _, t := range s.PhaseTimings() {
				rt.Phases = append(rt.Phases, phaseTimingJSON{
					Phase: t.Name, NS: t.Total.Nanoseconds(), Bytes: t.Bytes, Allocs: t.Allocs})
			}
			timingOut = append(timingOut, rt)
		}
		fmt.Println()
	}
	if err := o.Close(); err != nil {
		fatal(err)
	}
	if *timingsJSON != "" {
		if err := writeTimingsJSON(*timingsJSON, timingOut); err != nil {
			fatal(err)
		}
	}
}

// runTimings is the machine-readable form of one run's -timings table
// (the -timings-json output is an array of these, one per algorithm).
type runTimings struct {
	Scenario string            `json:"scenario"`
	Algo     string            `json:"algo"`
	Workers  int               `json:"workers"`
	Phases   []phaseTimingJSON `json:"phases"`
}

type phaseTimingJSON struct {
	Phase  string `json:"phase"`
	NS     int64  `json:"ns"`
	Bytes  uint64 `json:"bytes"`
	Allocs uint64 `json:"allocs"`
}

// buildObs assembles the run's observability bundle from the trace
// flags; both empty means disabled (a nil *Obs).
func buildObs(traceFile, chromeFile string) (*obs.Obs, error) {
	if traceFile == "" && chromeFile == "" {
		return nil, nil
	}
	o := &obs.Obs{Reg: obs.NewRegistry()}
	if traceFile != "" {
		tr, err := obs.OpenTrace(traceFile)
		if err != nil {
			return nil, err
		}
		o.Trace = tr
	}
	if chromeFile != "" {
		ch, err := obs.OpenChrome(chromeFile)
		if err != nil {
			return nil, err
		}
		o.Chrome = ch
	}
	return o, nil
}

func writeTimingsJSON(path string, out []runTimings) error {
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runSmoke executes every bundled scenario at small scale and fails loudly
// when a window comes back empty or the result flunks the run-invariant
// checker — the CI guard against scenario rot.
func runSmoke() {
	failed := false
	for _, sc := range scenario.Library() {
		res, err := smokeOne(sc.Scaled(120))
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenario smoke: %s: %v\n", sc.Name, err)
			failed = true
			continue
		}
		bad := len(res.Windows) == 0
		for _, w := range res.Windows {
			if w.Cohort == 0 || w.MeasuredTicks == 0 || w.PlayedSegments == 0 ||
				(w.Kind == "switch" && len(w.PrepareS2Times) == 0) {
				bad = true
			}
		}
		status := "ok"
		if bad {
			status = "EMPTY METRICS"
			failed = true
		}
		fmt.Printf("%-22s %-14s windows=%d\n", sc.Name, status, len(res.Windows))
	}
	if failed {
		os.Exit(1)
	}
}

// smokeOne runs one scenario under the fast scheduler and audits the
// result against the run-invariant checker.
func smokeOne(sc *scenario.Scenario) (*sim.Result, error) {
	cfg, err := sc.Config(sim.Fast)
	if err != nil {
		return nil, err
	}
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := s.Run()
	if err != nil {
		return nil, err
	}
	if err := sim.CheckInvariants(cfg, res); err != nil {
		return nil, fmt.Errorf("invariants: %w", err)
	}
	return res, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
	os.Exit(1)
}
