package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

func TestNilSinksAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "x")
	g := r.Gauge("y", "y")
	h := r.Histogram("z_ns", "z")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry handed out non-nil metrics")
	}
	c.Add(5)
	c.Inc()
	c.SetTotal(9)
	g.Set(3)
	h.Observe(100)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil metrics accumulated state")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry wrote %q err=%v", buf.String(), err)
	}
	if r.Snapshot() != nil {
		t.Fatalf("nil registry snapshot non-nil")
	}

	var tr *Trace
	tr.Emit(TraceEvent{T: EvTick, Tick: 1, NS: 5})
	if tr.Events() != 0 {
		t.Fatalf("nil trace counted events")
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("nil trace close: %v", err)
	}

	var ch *ChromeTrace
	ch.Span("plan", 0, 1, time.Now(), time.Millisecond)
	if ch.Spans() != 0 || ch.Close() != nil {
		t.Fatalf("nil chrome trace not a no-op")
	}

	var o *Obs
	if o.Registry() != nil || o.Tracer() != nil || o.ChromeSink() != nil || o.Close() != nil {
		t.Fatalf("nil Obs accessors not nil-safe")
	}
}

func TestRegistryIdempotentAndAtomic(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("gossip_ticks_total", "ticks")
	b := r.Counter("gossip_ticks_total", "ticks")
	if a != b {
		t.Fatalf("re-registration returned a different counter")
	}
	a.Add(3)
	b.Inc()
	if a.Value() != 4 {
		t.Fatalf("counter = %d, want 4", a.Value())
	}
	g := r.Gauge("gossip_inbox_depth", "depth")
	g.Set(7)
	g.Set(2)
	if g.Value() != 2 {
		t.Fatalf("gauge = %d, want 2", g.Value())
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("gossip_ticks_total", "scheduling periods executed").Add(12)
	r.Counter(`gossip_phase_ns_total{phase="plan"}`, "per-phase ns").Add(100)
	r.Counter(`gossip_phase_ns_total{phase="serve"}`, "per-phase ns").Add(200)
	r.Gauge("gossip_inbox_depth", "max inbox depth").Set(4)
	h := r.Histogram("gossip_tick_ns", "tick duration")
	h.Observe(2000)    // second bucket (1024 < 2000 <= 4096)
	h.Observe(5 << 30) // above every bound: +Inf bucket
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE gossip_ticks_total counter",
		"gossip_ticks_total 12",
		"# HELP gossip_phase_ns_total per-phase ns",
		`gossip_phase_ns_total{phase="plan"} 100`,
		`gossip_phase_ns_total{phase="serve"} 200`,
		"# TYPE gossip_inbox_depth gauge",
		"gossip_inbox_depth 4",
		"# TYPE gossip_tick_ns histogram",
		`gossip_tick_ns_bucket{le="4096"} 1`,
		`gossip_tick_ns_bucket{le="+Inf"} 2`,
		fmt.Sprintf("gossip_tick_ns_sum %d", int64(2000+5<<30)),
		"gossip_tick_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE once per family, even with several labeled series.
	if n := strings.Count(out, "# TYPE gossip_phase_ns_total"); n != 1 {
		t.Errorf("phase family TYPE emitted %d times", n)
	}
	snap := r.Snapshot()
	if snap["gossip_ticks_total"] != 12 || snap["gossip_tick_ns_count"] != 2 {
		t.Errorf("snapshot mismatch: %v", snap)
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d_ns", "d")
	for i := 0; i < 10; i++ {
		h.Observe(1) // all in the first bucket
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	// Every bucket line must carry the cumulative count 10.
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "d_ns_bucket") && !strings.HasSuffix(line, " 10") {
			t.Fatalf("non-cumulative bucket line: %q", line)
		}
	}
}

func TestTraceEmitAndValidate(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	tr.Emit(TraceEvent{T: EvRunStart, Tick: 0, Scenario: "paper-single-switch", Algo: "fast", Nodes: 150, Seed: 42})
	tr.Emit(TraceEvent{T: EvTick, Tick: 0, NS: 123456})
	tr.Emit(TraceEvent{T: EvEvent, Tick: 40, Kind: "switch-planned", Node: P[int64](0), To: P[int64](7)})
	tr.Emit(TraceEvent{T: EvWindowOpen, Tick: 40, Window: P(0), Kind: "switch", Cohort: 148})
	tr.Emit(TraceEvent{T: EvSwitch, Tick: 40, Kind: "s1-end", Seg: P[int64](620)})
	tr.Emit(TraceEvent{T: EvRetry, Tick: 41, Dest: 2, Seq: 17})
	tr.Emit(TraceEvent{T: EvPartition, Tick: 42, Kind: "sever"})
	tr.Emit(TraceEvent{T: EvWindowClose, Tick: 55, Window: P(0), Measured: 15})
	tr.Emit(TraceEvent{T: EvRunEnd, Tick: 56, Windows: 1})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Events() != 9 {
		t.Fatalf("events = %d, want 9", tr.Events())
	}
	n, err := ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("emitted trace fails its own schema: %v", err)
	}
	if n != 9 {
		t.Fatalf("validated %d lines, want 9", n)
	}
	// Window 0 and node 0 must survive the optional-field encoding.
	if !strings.Contains(buf.String(), `"window":0`) {
		t.Errorf("window 0 dropped from the wire: %s", buf.String())
	}
	if !strings.Contains(buf.String(), `"node":0`) {
		t.Errorf("node 0 dropped from the wire: %s", buf.String())
	}
}

func TestValidateTraceRejects(t *testing.T) {
	cases := []string{
		`{"t":"nope","tick":1}`,                   // unknown type
		`{"t":"tick"}`,                            // no tick
		`{"t":"tick","tick":1}`,                   // tick without ns
		`{"t":"event","tick":1}`,                  // event without kind
		`{"t":"window-open","tick":1,"kind":"x"}`, // open without window index
		`not json`,                                // not JSON
	}
	for _, c := range cases {
		if err := ValidateTraceLine([]byte(c)); err == nil {
			t.Errorf("line %q validated, want error", c)
		}
	}
	if _, err := ValidateTrace(strings.NewReader("")); err == nil {
		t.Errorf("empty trace validated")
	}
}

func TestChromeTraceWellFormed(t *testing.T) {
	path := t.TempDir() + "/trace.json"
	c, err := OpenChrome(path)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now()
	c.Span("plan", 0, 1, base, 2*time.Millisecond)
	c.Span("serve", 0, 1, base.Add(2*time.Millisecond), 3*time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Spans() != 2 {
		t.Fatalf("spans = %d, want 2", c.Spans())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v\n%s", err, data)
	}
	if len(events) != 2 || events[0].Name != "plan" || events[1].Name != "serve" {
		t.Fatalf("unexpected events: %+v", events)
	}
	if events[0].Ph != "X" || events[0].Dur != 2000 {
		t.Fatalf("span shape wrong: %+v", events[0])
	}
}

// failWriter fails every write, as a trace file on a full disk does.
type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }

// TestObsCloseReportsSinkErrors pins that Obs.Close returns its sinks'
// failures: a trace whose writer fails at the final flush, and a Chrome
// trace whose file can no longer be written, each surface as its error.
func TestObsCloseReportsSinkErrors(t *testing.T) {
	errFull := errors.New("disk full")
	tr := NewTrace(failWriter{errFull})
	tr.Emit(TraceEvent{T: EvTick, Tick: 1, NS: 5}) // buffered until Close flushes
	if err := (&Obs{Trace: tr}).Close(); !errors.Is(err, errFull) {
		t.Errorf("Close with a failing trace writer = %v, want %v", err, errFull)
	}

	c, err := OpenChrome(t.TempDir() + "/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	c.f.Close() // the closing "]" can no longer be written
	if err := (&Obs{Trace: NewTrace(io.Discard), Chrome: c}).Close(); err == nil {
		t.Error("Close with an unwritable Chrome trace returned nil")
	}
}

func TestDebugEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("gossip_ticks_total", "ticks").Add(5)
	s, err := StartDebug("127.0.0.1:0", reg,
		func() any { return map[string]any{"status": "ok", "tick": 12} },
		func() any { return map[string]any{"tick": 12, "windows": 1} })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "gossip_ticks_total 5") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	if out := get("/healthz"); !strings.Contains(out, `"status": "ok"`) {
		t.Errorf("/healthz body: %s", out)
	}
	if out := get("/runz"); !strings.Contains(out, `"windows": 1`) {
		t.Errorf("/runz body: %s", out)
	}
	if out := get("/debug/pprof/cmdline"); len(out) == 0 {
		t.Errorf("/debug/pprof/cmdline empty")
	}
}
