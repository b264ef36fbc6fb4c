// Command benchmark is the repository's benchmark: four workloads over
// the three backends (sharded simulator, small-N sweep, live runtime,
// multi-shard cluster), eight end-to-end metrics measured with tracing
// off, and a traced run per workload that yields one row per layer.
// BENCHMARK.json names the workloads, metrics, units and regression
// bounds; README.md in this directory says what each is for.
//
//	go run ./benchmark -workload sim-switch-2k            # one untraced run
//	go run ./benchmark -workload sim-switch-2k -trace 1   # one traced run
//	go run ./benchmark -all -out A.json                   # k fresh processes per workload
//	go run ./benchmark -compare A.json B.json             # judge B against A
//	go run ./benchmark -selfcheck                         # two sets of the same code
//
// A single run prints a table and, as the last line of standard output,
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	goruntime "runtime"
	"slices"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport is the last line a single run prints.
type runReport struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outDir is where traces and -all documents land, relative to the
// repository root.
const outDir = "benchmark/out"

func main() {
	var (
		name      = flag.String("workload", "", "workload to run once (see BENCHMARK.json)")
		seed      = flag.Int64("seed", 7, "workload seed: every input is generated from it")
		seconds   = flag.Float64("seconds", 0, "work to measure, in seconds on the reference host (default: BENCHMARK.json run_seconds)")
		trace     = flag.Int("trace", 0, "1: the traced run (per-layer metrics); 0: the untraced run (end-to-end metrics)")
		all       = flag.Bool("all", false, "run every workload -k times, each in a fresh process, plus one traced run each")
		k         = flag.Int("k", 5, "with -all and -selfcheck: repetitions per workload")
		out       = flag.String("out", filepath.Join(outDir, "all.json"), "with -all: where to write the JSON document")
		compare   = flag.Bool("compare", false, "compare two -all documents: -compare A.json B.json")
		selfcheck = flag.Bool("selfcheck", false, "run two sets of this code and fail if any end-to-end metric differs by more than its bound")
	)
	flag.Parse()

	spec, root, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two -all documents"))
		}
		err = compareFiles(spec, flag.Arg(0), flag.Arg(1))
	case *selfcheck:
		err = selfCheck(spec, *seed, *seconds, *k)
	case *all:
		var doc *document
		if doc, err = runAll(spec, *seed, *seconds, *k, true); err == nil {
			doc.print(os.Stdout)
			err = doc.write(*out)
		}
	case *name != "":
		err = runOnce(spec, *name, *seed, *seconds, *trace != 0)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runOnce is the contract's single run: one workload, in this process.
func runOnce(spec *benchSpec, name string, seed int64, seconds float64, traced bool) error {
	rep, digest, err := measure(spec, name, seed, seconds, traced, fullScale, outDir)
	if err != nil {
		return err
	}
	kind := "end-to-end, tracing off"
	if traced {
		kind = "per-layer, traced"
	}
	fmt.Printf("workload %s  seed %d  seconds %g  (%s)\n", name, seed, seconds, kind)
	for _, n := range slices.Sorted(maps.Keys(rep.Metrics)) {
		fmt.Printf("  %-40s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	fmt.Printf("result_digest %s\n", digest)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure runs one workload once and returns its report and, for the
// simulator workloads, the digest of every result it produced ("-" for
// the live workloads, which are not deterministic). A traced run writes
// its spans to <traceDir>/<workload>.trace.json.
func measure(spec *benchSpec, name string, seed int64, seconds float64, traced bool, sc scale, traceDir string) (*runReport, string, error) {
	w := lookupWorkload(name)
	if w == nil {
		return nil, "", fmt.Errorf("unknown workload %q", name)
	}
	if w.procs > 0 {
		defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(w.procs))
	}
	c := &runCtx{seed: seed, seconds: seconds, sc: sc, root: -1}
	t := newTally()
	var values map[string]float64
	var runErr error
	if traced {
		c.sp = newSpans(name)
		c.root = c.sp.begin("run:"+name, -1)
		values, runErr = traceRun(spec, w, c, t)
		c.sp.end(c.root)
	} else if runErr = w.run(c, t); runErr == nil {
		values, runErr = t.endToEnd()
	}
	if runErr != nil {
		// A run that errors or breaks an invariant fails all of its
		// operations, and reports no metric.
		fmt.Fprintln(os.Stderr, "benchmark: run incorrect:", runErr)
		n := max(t.attempted, 1)
		return &runReport{Attempted: n, Failed: n, Metrics: map[string]metricValue{}}, "-", nil
	}
	if traced {
		if err := c.sp.check(); err != nil {
			return nil, "", err
		}
		if err := c.sp.write(filepath.Join(traceDir, name+".trace.json")); err != nil {
			return nil, "", err
		}
	}
	rep := &runReport{Correct: true, Attempted: t.attempted, Failed: t.fails, Metrics: map[string]metricValue{}}
	want := spec.metrics(traced)
	if len(values) != len(want) {
		return nil, "", fmt.Errorf("%s emitted %d metrics, %s lists %d", name, len(values), specFile, len(want))
	}
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok {
			return nil, "", fmt.Errorf("%s did not emit %s", name, m.Name)
		}
		rep.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	digest := "-"
	if w.deterministic {
		digest = t.resultDigest()
	}
	return rep, digest, nil
}

// traceRun runs the workload's traced pass and its layer drivers, and
// merges both into one row per per-layer metric. A layer the workload
// bypasses reports 0.
func traceRun(spec *benchSpec, w *workload, c *runCtx, t *tally) (map[string]float64, error) {
	tr, err := w.trace(c, t)
	if err != nil {
		return nil, err
	}
	layers, err := layerRows(c.sp, c.root, c.seed, tr.shape, tr.wireViews, c.sc.driverDiv)
	if err != nil {
		return nil, err
	}
	values := make(map[string]float64, len(spec.PerLayer))
	for _, m := range spec.PerLayer {
		values[m.Name] = 0
	}
	for _, rows := range []map[string]float64{tr.rows, layers} {
		for name, v := range rows {
			if _, listed := values[name]; !listed {
				return nil, fmt.Errorf("row %s is not a per_layer metric of %s", name, specFile)
			}
			values[name] = v
		}
	}
	return values, nil
}
