package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// BENCHMARK.json at the repository root is the single definition of the
// benchmark's surface: workload names, metric names, units, directions
// and regression bounds. The program reads it instead of repeating it,
// so the file the driver checks and the numbers the program prints
// cannot drift apart.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

const specFile = "BENCHMARK.json"

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadSpec finds BENCHMARK.json in the working directory or the nearest
// parent (go test runs with the package directory as cwd) and returns it
// with the directory it was found in — the root every relative output
// path hangs off.
func loadSpec() (*benchSpec, string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, "", err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, specFile))
		if err == nil {
			var sp benchSpec
			if err := json.Unmarshal(raw, &sp); err != nil {
				return nil, "", fmt.Errorf("%s: %w", specFile, err)
			}
			return &sp, dir, sp.validate()
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, "", fmt.Errorf("%s not found in the working directory or any parent", specFile)
		}
		dir = parent
	}
}

func (sp *benchSpec) validate() error {
	seen := make(map[string]bool)
	check := func(kind, name string) error {
		if !nameRe.MatchString(name) {
			return fmt.Errorf("%s: %s name %q is not [A-Za-z0-9_.-]{1,64}", specFile, kind, name)
		}
		if seen[name] {
			return fmt.Errorf("%s: name %q used twice", specFile, name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range sp.Workloads {
		if err := check("workload", w.Name); err != nil {
			return err
		}
	}
	for _, list := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			if err := check("metric", m.Name); err != nil {
				return err
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("%s: metric %s: better must be lower or higher", specFile, m.Name)
			}
		}
	}
	if sp.RunSeconds < 1 {
		return fmt.Errorf("%s: run_seconds %d", specFile, sp.RunSeconds)
	}
	return nil
}

// metrics returns the metric list a run of the given kind must emit.
func (sp *benchSpec) metrics(traced bool) []metricSpec {
	if traced {
		return sp.PerLayer
	}
	return sp.EndToEnd
}
