package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"gossipstream/internal/stats"
)

// The -all driver: every (workload, repetition) is a fresh process of
// this same binary, so peak RSS and cold caches are per run, and the
// repetitions of the workloads are interleaved so that slow drift of the
// host lands on all of them alike.

// summary is one end-to-end metric over the k runs of one workload.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) summary {
	if len(values) == 0 { // every run of the workload was incorrect
		return summary{Unit: unit}
	}
	return summary{
		Unit: unit, N: len(values), Values: values,
		Median: stats.Median(values), Q1: stats.Percentile(values, 25), Q3: stats.Percentile(values, 75),
	}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 { return (s.Q3 - s.Q1) / math.Abs(s.Median) }

type workloadDoc struct {
	Name         string                 `json:"name"`
	Correct      bool                   `json:"correct"`
	Attempted    int64                  `json:"attempted"`
	Failed       int64                  `json:"failed"`
	ResultDigest string                 `json:"result_digest"`
	EndToEnd     map[string]summary     `json:"end_to_end"`
	PerLayer     map[string]metricValue `json:"per_layer,omitempty"`
}

type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GitRev     string `json:"git_rev"`
	LoadAvg1   string `json:"loadavg_1min_at_start"`
	Started    string `json:"started"`
}

// document is what -all writes and -compare reads.
type document struct {
	Host      hostFacts     `json:"host"`
	Seed      int64         `json:"seed"`
	Seconds   float64       `json:"seconds"`
	K         int           `json:"k"`
	Workloads []workloadDoc `json:"workloads"`
}

func host() hostFacts {
	h := hostFacts{
		NumCPU: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0), Go: goruntime.Version(),
		GitRev: "unknown", LoadAvg1: "unknown", Started: time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.GitRev = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(raw)); len(f) > 0 {
			h.LoadAvg1 = f[0]
		}
	}
	return h
}

// child runs one workload once in a fresh process and parses what it
// printed: the result digest line and the final JSON object.
func child(exe, workload string, seed int64, seconds float64, traced bool) (*runReport, string, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", workload, err)
	}
	var last, digest string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if d, ok := strings.CutPrefix(last, "result_digest "); ok {
			digest = d
		}
	}
	var rep runReport
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return nil, "", fmt.Errorf("%s: last output line is not the result object: %w", workload, err)
	}
	return &rep, digest, nil
}

// runAll measures every workload k times (and once more traced, when
// withTrace), each run in a fresh process.
func runAll(spec *benchSpec, seed int64, seconds float64, k int, withTrace bool) (*document, error) {
	if k < 1 {
		return nil, fmt.Errorf("-k %d: need at least one repetition", k)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	doc := &document{Host: host(), Seed: seed, Seconds: seconds, K: k}
	values := make([]map[string][]float64, len(spec.Workloads))
	for i, w := range spec.Workloads {
		doc.Workloads = append(doc.Workloads, workloadDoc{Name: w.Name, Correct: true})
		values[i] = make(map[string][]float64)
	}
	for rep := 0; rep < k; rep++ {
		for i := range doc.Workloads {
			wd := &doc.Workloads[i]
			fmt.Fprintf(os.Stderr, "benchmark: %s run %d/%d\n", wd.Name, rep+1, k)
			r, digest, err := child(exe, wd.Name, seed, seconds, false)
			if err != nil {
				return nil, err
			}
			wd.Attempted += r.Attempted
			wd.Failed += r.Failed
			wd.Correct = wd.Correct && r.Correct
			if rep == 0 {
				wd.ResultDigest = digest
			} else if digest != wd.ResultDigest {
				// Sibling runs of a simulator workload must agree to the bit.
				fmt.Fprintf(os.Stderr, "benchmark: %s: result digest %s differs from its sibling run's %s\n", wd.Name, digest, wd.ResultDigest)
				wd.Correct = false
			}
			for name, m := range r.Metrics {
				values[i][name] = append(values[i][name], m.Value)
			}
		}
	}
	for i := range doc.Workloads {
		wd := &doc.Workloads[i]
		if !wd.Correct {
			wd.Failed = wd.Attempted
		}
		wd.EndToEnd = make(map[string]summary)
		for _, m := range spec.EndToEnd {
			wd.EndToEnd[m.Name] = summarize(m.Unit, values[i][m.Name])
		}
		if withTrace {
			fmt.Fprintf(os.Stderr, "benchmark: %s traced run\n", wd.Name)
			r, _, err := child(exe, wd.Name, seed, seconds, true)
			if err != nil {
				return nil, err
			}
			wd.Correct = wd.Correct && r.Correct
			wd.PerLayer = r.Metrics
		}
	}
	return doc, nil
}

func (d *document) write(path string) error {
	raw, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readDocument(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// print renders the document as one table.
func (d *document) print(w io.Writer) {
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s rev=%s load=%s  seed=%d seconds=%g k=%d\n",
		d.Host.NumCPU, d.Host.GOMAXPROCS, d.Host.Go, d.Host.GitRev, d.Host.LoadAvg1, d.Seed, d.Seconds, d.K)
	for _, wd := range d.Workloads {
		fmt.Fprintf(w, "\n%s  correct=%t attempted=%d failed=%d result_digest=%s\n",
			wd.Name, wd.Correct, wd.Attempted, wd.Failed, wd.ResultDigest)
		fmt.Fprintf(w, "  %-40s %14s %14s %14s %3s  %s\n", "end-to-end metric", "median", "q1", "q3", "n", "unit")
		for _, name := range slices.Sorted(maps.Keys(wd.EndToEnd)) {
			s := wd.EndToEnd[name]
			fmt.Fprintf(w, "  %-40s %14.6g %14.6g %14.6g %3d  %s\n", name, s.Median, s.Q1, s.Q3, s.N, s.Unit)
		}
		if len(wd.PerLayer) > 0 {
			fmt.Fprintf(w, "  %-40s %14s  %s\n", "per-layer metric (one traced run)", "value", "unit")
		}
		for _, name := range slices.Sorted(maps.Keys(wd.PerLayer)) {
			fmt.Fprintf(w, "  %-40s %14.6g  %s\n", name, wd.PerLayer[name].Value, wd.PerLayer[name].Unit)
		}
	}
}

// The verdicts of -compare, the rule later changes are judged by.
const (
	verdictImproved   = "improved"
	verdictWorse      = "worse"
	verdictWithin     = "within-bound"
	verdictUnresolved = "unresolved"
)

// judge compares one metric of the change (b) against the parent (a).
// worse is how much worse b's median is than a's, as a share of a's.
//
//   - unresolved: either side's spread is wider than the bound and the
//     runs overlap, so the medians say nothing either way;
//   - worse: b's median is worse than a's by more than the bound;
//   - improved: b's median is better by more than a's own interquartile
//     range, and b wins at least nine tenths of all (a, b) pairs;
//   - within-bound: everything else.
func judge(m metricSpec, a, b summary) (verdict string, worse float64) {
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	worse = sign * (b.Median - a.Median) / math.Abs(a.Median)
	wins, pairs := 0, 0
	for _, av := range a.Values {
		for _, bv := range b.Values {
			pairs++
			if sign*(bv-av) < 0 {
				wins++
			}
		}
	}
	separated := wins == pairs || wins == 0
	switch {
	case math.Max(a.spread(), b.spread()) > m.Bound && !separated:
		return verdictUnresolved, worse
	case worse > m.Bound:
		return verdictWorse, worse
	case -worse*math.Abs(a.Median) > a.Q3-a.Q1 && 10*wins >= 9*pairs:
		return verdictImproved, worse
	}
	return verdictWithin, worse
}

// compareDocs prints, per workload and end-to-end metric, both medians
// and quartiles, the change as a ratio with its base, and the verdict.
func compareDocs(w io.Writer, spec *benchSpec, a, b *document) {
	fmt.Fprintf(w, "A: rev=%s k=%d seed=%d   B: rev=%s k=%d seed=%d\n",
		a.Host.GitRev, a.K, a.Seed, b.Host.GitRev, b.K, b.Seed)
	for _, wa := range a.Workloads {
		var wb *workloadDoc
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "\n%s: missing from B\n", wa.Name)
			continue
		}
		fmt.Fprintf(w, "\n%s  failed A %d/%d, B %d/%d  digest A %s, B %s\n", wa.Name,
			wa.Failed, wa.Attempted, wb.Failed, wb.Attempted, wa.ResultDigest, wb.ResultDigest)
		fmt.Fprintf(w, "  %-24s %-30s %-30s %-22s %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "(B-A)/A", "verdict")
		for _, m := range spec.EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			verdict, worse := judge(m, sa, sb)
			fmt.Fprintf(w, "  %-24s %-30s %-30s %-22s %s (%+.1f%% worse, bound %.0f%%)\n", m.Name,
				fmt.Sprintf("%.5g [%.5g, %.5g]", sa.Median, sa.Q1, sa.Q3),
				fmt.Sprintf("%.5g [%.5g, %.5g]", sb.Median, sb.Q1, sb.Q3),
				fmt.Sprintf("%+.4f of %.5g %s", (sb.Median-sa.Median)/sa.Median, sa.Median, m.Unit),
				verdict, 100*worse, 100*m.Bound)
		}
	}
}

func compareFiles(spec *benchSpec, pathA, pathB string) error {
	a, err := readDocument(pathA)
	if err != nil {
		return err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return err
	}
	compareDocs(os.Stdout, spec, a, b)
	return nil
}

// selfCheck runs two sets of the same code and requires them to agree:
// every end-to-end median within its bound in either direction, equal
// result digests, every run correct, no failed operation.
func selfCheck(spec *benchSpec, seed int64, seconds float64, k int) error {
	var docs [2]*document
	for i := range docs {
		fmt.Fprintf(os.Stderr, "benchmark: selfcheck set %d/2\n", i+1)
		d, err := runAll(spec, seed, seconds, k, false)
		if err != nil {
			return err
		}
		docs[i] = d
	}
	compareDocs(os.Stdout, spec, docs[0], docs[1])
	var problems []string
	for i, wa := range docs[0].Workloads {
		wb := docs[1].Workloads[i]
		for _, wd := range []workloadDoc{wa, wb} {
			if !wd.Correct || wd.Failed != 0 {
				problems = append(problems, fmt.Sprintf("%s: correct=%t failed=%d/%d", wd.Name, wd.Correct, wd.Failed, wd.Attempted))
			}
		}
		if wa.ResultDigest != wb.ResultDigest {
			problems = append(problems, fmt.Sprintf("%s: result digests differ (%s vs %s)", wa.Name, wa.ResultDigest, wb.ResultDigest))
		}
		for _, m := range spec.EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if diff := math.Abs(sb.Median-sa.Median) / math.Abs(sa.Median); diff > m.Bound {
				problems = append(problems, fmt.Sprintf("%s %s: medians %.6g and %.6g differ by %.1f%% (bound %.0f%%)",
					wa.Name, m.Name, sa.Median, sb.Median, 100*diff, 100*m.Bound))
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(problems, "\n  "))
	}
	fmt.Println("selfcheck: both sets agree within every bound")
	return nil
}
