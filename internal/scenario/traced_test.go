package scenario

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"gossipstream/internal/obs"
	"gossipstream/internal/sim"
)

// TestTracedRunBitIdentical pins the observability contract: metrics
// and tracing are observational only, so a run with a live registry and
// trace stream attached produces a bit-identical Result to a bare run —
// at any worker count. This is what lets an operator turn tracing on in
// anger without changing what the run computes.
func TestTracedRunBitIdentical(t *testing.T) {
	scens := []func() *Scenario{PaperSingleSwitch, TransatlanticSplit}
	for _, mk := range scens {
		for _, workers := range []int{1, 8} {
			name := fmt.Sprintf("%s/workers=%d", mk().Name, workers)
			t.Run(name, func(t *testing.T) {
				run := func(o *obs.Obs) *sim.Result {
					cfg, err := mk().Scaled(120).Config(sim.Fast)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Workers = workers
					cfg.Obs = o
					s, err := sim.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := s.Run()
					if err != nil {
						t.Fatal(err)
					}
					return res
				}

				bare := run(nil)
				var buf bytes.Buffer
				o := &obs.Obs{Reg: obs.NewRegistry(), Trace: obs.NewTrace(&buf)}
				traced := run(o)
				if err := o.Close(); err != nil {
					t.Fatal(err)
				}

				if !reflect.DeepEqual(bare, traced) {
					t.Errorf("traced run diverged from bare run:\nbare:   %+v\ntraced: %+v",
						bare, traced)
				}
				if n, err := obs.ValidateTrace(&buf); err != nil {
					t.Errorf("trace stream invalid after %d lines: %v", n, err)
				}
			})
		}
	}
}
