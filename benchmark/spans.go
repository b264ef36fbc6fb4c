package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The benchmark's own tracing: a span around every call (or batch of
// calls) into a layer, recorded from outside the program. Spans stay in
// memory until the run ends and are then written in the Chrome
// trace-event format (loadable in chrome://tracing or ui.perfetto.dev),
// each carrying its id, its parent's id, its self time and the workload
// it belongs to. internal/obs's ChromeTrace streams to a file and has
// no parent field, so the file is written here.

type span struct {
	name       string
	parent     int // index into spans.all, -1 for a root
	start, end time.Time
}

// spans records one run's spans. A nil *spans records nothing, which is
// how the untraced run disables tracing.
type spans struct {
	mu       sync.Mutex
	workload string
	epoch    time.Time
	all      []span
}

func newSpans(workload string) *spans {
	return &spans{workload: workload, epoch: time.Now()}
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.all = append(s.all, span{name: name, parent: parent, start: time.Now()})
	return len(s.all) - 1
}

func (s *spans) end(id int) {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.all[id].end = now
}

// check reports spans left open or pointing at a parent that does not
// exist or does not enclose them.
func (s *spans) check() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, sp := range s.all {
		if sp.end.IsZero() {
			return fmt.Errorf("span %d (%s) never ended", i, sp.name)
		}
		if sp.parent == -1 {
			continue
		}
		if sp.parent < 0 || sp.parent >= i {
			return fmt.Errorf("span %d (%s) has unresolved parent %d", i, sp.name, sp.parent)
		}
		if p := s.all[sp.parent]; sp.start.Before(p.start) || sp.end.After(p.end) {
			return fmt.Errorf("span %d (%s) is not enclosed by its parent %d (%s)", i, sp.name, sp.parent, p.name)
		}
	}
	return nil
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover. Children of one parent may overlap (the sweep fans its
// trials out), so a child is clipped to what earlier siblings left
// uncovered.
func (s *spans) selfTimes() []time.Duration {
	self := make([]time.Duration, len(s.all))
	covered := make([]time.Time, len(s.all)) // per parent: end of the covered prefix
	for i, sp := range s.all {
		self[i] += sp.end.Sub(sp.start)
		if sp.parent < 0 {
			continue
		}
		from := sp.start
		if covered[sp.parent].After(from) {
			from = covered[sp.parent]
		}
		if sp.end.After(from) {
			self[sp.parent] -= sp.end.Sub(from)
			covered[sp.parent] = sp.end
		}
	}
	return self
}

// write stores the spans as a Chrome trace-event array.
func (s *spans) write(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := s.selfTimes()
	events := make([]event, len(s.all))
	for i, sp := range s.all {
		events[i] = event{
			Name: sp.name, Ph: "X",
			TS:  sp.start.Sub(s.epoch).Microseconds(),
			Dur: sp.end.Sub(sp.start).Microseconds(),
			Args: map[string]any{
				"id": i, "parent": sp.parent, "workload": s.workload,
				"self_us": self[i].Microseconds(),
			},
		}
	}
	raw, err := json.MarshalIndent(events, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
