package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
)

// The metrics registry: named atomic counters, gauges and histograms,
// registered once at run setup and updated from hot paths with plain
// atomic operations — no maps, no locks, no allocation after
// registration. A nil *Registry (observability disabled) hands out nil
// metrics whose methods are no-ops, so instrumented code needs no
// branches and a disabled run pays one nil check per update.

// Counter is a monotonically increasing series. The zero value is ready
// to use; a nil Counter ignores every update.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// SetTotal overwrites the counter with an externally accumulated total —
// for mirroring a cumulative count kept elsewhere (transport stats, the
// kernel's drop counter) into the registry. The source must itself be
// monotonic for the series to stay a well-formed counter.
func (c *Counter) SetTotal(v int64) {
	if c == nil {
		return
	}
	c.v.Store(v)
}

// Value reads the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a series that can go up and down. A nil Gauge ignores every
// update.
type Gauge struct{ v atomic.Int64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed exponential buckets —
// cumulative in the Prometheus exposition, per-bucket atomics
// internally. A nil Histogram ignores every observation.
type Histogram struct {
	bounds  []int64 // ascending upper bounds; implicit +Inf bucket after
	buckets []atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64
}

// DurationBuckets are the default nanosecond bounds for duration
// histograms: powers of four from 1µs to ~4.3s.
var DurationBuckets = []int64{
	1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20,
	1 << 22, 1 << 24, 1 << 26, 1 << 28, 1 << 30, 1 << 32,
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Linear scan: the bucket count is small and fixed, and the common
	// samples land early. No allocation, no lock.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count reads the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the accumulated sample total (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// metric is one registered series.
type metric struct {
	name   string // full series name, labels included
	family string // name with the label part stripped
	help   string
	kind   string // "counter", "gauge", "histogram"
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds the run's metric series. Registration (Counter, Gauge,
// Histogram) is idempotent by full series name and safe for concurrent
// use; it is meant for run setup, not hot paths. A nil *Registry is the
// disabled registry: it returns nil metrics and writes nothing.
type Registry struct {
	mu     sync.Mutex
	series map[string]*metric
	order  []string
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*metric)}
}

// family strips a trailing {label="..."} part off a series name.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// register adds (or finds) one series under the full name.
func (r *Registry) register(name, help, kind string) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.series[name]; ok {
		return m
	}
	m := &metric{name: name, family: family(name), help: help, kind: kind}
	switch kind {
	case "counter":
		m.c = &Counter{}
	case "gauge":
		m.g = &Gauge{}
	case "histogram":
		m.h = &Histogram{bounds: DurationBuckets,
			buckets: make([]atomic.Int64, len(DurationBuckets)+1)}
	}
	r.series[name] = m
	r.order = append(r.order, name)
	return m
}

// Counter registers (or finds) a counter series. The name may carry a
// Prometheus label part: `gossip_phase_ns_total{phase="plan"}`.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, "counter").c
}

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, "gauge").g
}

// Histogram registers (or finds) a histogram series with the default
// duration buckets.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, "histogram").h
}

// labeled splices an extra label (le for histogram buckets) into a
// series name that may or may not already carry labels.
func labeled(name, extra string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + "," + extra + "}"
	}
	return name + "{" + extra + "}"
}

// WritePrometheus renders every series in the text exposition format,
// families in registration order, HELP and TYPE once per family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	series := make([]*metric, len(names))
	for i, n := range names {
		series[i] = r.series[n]
	}
	r.mu.Unlock()

	// Stable family grouping: first occurrence fixes the family's slot.
	seen := make(map[string]bool)
	for _, m := range series {
		if !seen[m.family] {
			seen[m.family] = true
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
				m.family, m.help, m.family, m.kind); err != nil {
				return err
			}
			for _, sm := range series {
				if sm.family != m.family {
					continue
				}
				if err := writeSeries(w, sm); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, m *metric) error {
	switch m.kind {
	case "counter":
		_, err := fmt.Fprintf(w, "%s %d\n", m.name, m.c.Value())
		return err
	case "gauge":
		_, err := fmt.Fprintf(w, "%s %d\n", m.name, m.g.Value())
		return err
	case "histogram":
		h := m.h
		var cum int64
		for i, b := range h.bounds {
			cum += h.buckets[i].Load()
			if _, err := fmt.Fprintf(w, "%s %d\n",
				labeled(m.name+"_bucket", fmt.Sprintf(`le="%d"`, b)), cum); err != nil {
				return err
			}
		}
		cum += h.buckets[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s %d\n", labeled(m.name+"_bucket", `le="+Inf"`), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n",
			m.name, h.Sum(), m.name, h.Count()); err != nil {
			return err
		}
		return nil
	}
	return nil
}

// Snapshot returns every plain series value by full name (histograms
// contribute name_sum and name_count) — the /runz-friendly JSON view.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.series))
	for name, m := range r.series {
		switch m.kind {
		case "counter":
			out[name] = m.c.Value()
		case "gauge":
			out[name] = m.g.Value()
		case "histogram":
			out[name+"_sum"] = m.h.Sum()
			out[name+"_count"] = m.h.Count()
		}
	}
	return out
}
