package core_test

import (
	"math/rand"
	"testing"

	"gossipstream/internal/core"
	"gossipstream/internal/experiment"
)

// TestEmptyPlanStaysEmptyWithFewerSuppliers pins the property
// core.Algorithm documents, for every scheduler the ablations run. Over
// seeded random environments with a budget I·τ of 15, some of whose
// suppliers are too slow to deliver within the period, a plan is empty
// exactly when no candidate has a supplier with 1/R(j) ≤ τ, and an empty
// plan stays empty when suppliers are removed, the rest kept in order.
func TestEmptyPlanStaysEmptyWithFewerSuppliers(t *testing.T) {
	factories := append(experiment.PriorityVariants(), experiment.SplitVariants()...)
	rng := rand.New(rand.NewSource(20080914))
	var plan core.Plan
	var cands []core.Candidate
	empties, heldButEmpty := 0, 0
	for trial := 0; trial < 300; trial++ {
		env := core.RandomEnv(t, rng)
		for i := range env.Suppliers {
			if rng.Intn(2) == 0 {
				env.Suppliers[i].Rate *= 0.05 // mostly below 1/τ
			}
		}
		cands = core.BuildCandidates(env, core.ScoreOptions{}, cands[:0])
		deliverable := false
		for _, c := range cands {
			for i, sup := range env.Suppliers {
				deliverable = deliverable || (c.HasSupplier(i) && 1/sup.Rate <= env.Tau+1e-9)
			}
		}
		all := env.Suppliers
		for _, nf := range factories {
			alg := nf.Factory()
			env.Suppliers = all
			alg.Plan(env, &plan)
			if empty := len(plan.Requests) == 0; empty == deliverable {
				t.Fatalf("trial %d %s: %d requests, but a deliverable candidate exists: %v",
					trial, nf.Name, len(plan.Requests), deliverable)
			}
			if !deliverable {
				empties++
				if len(cands) > 0 {
					heldButEmpty++
				}
			}
			for k := 0; k < 4 && !deliverable; k++ {
				var fewer []core.Supplier
				for _, sup := range all {
					if rng.Intn(3) > 0 {
						fewer = append(fewer, sup)
					}
				}
				env.Suppliers = fewer
				if alg.Plan(env, &plan); len(plan.Requests) != 0 {
					t.Fatalf("trial %d %s: an empty plan asks for %d segments once %d of %d suppliers are left",
						trial, nf.Name, len(plan.Requests), len(fewer), len(all))
				}
			}
		}
	}
	if heldButEmpty == 0 {
		t.Fatal("no empty plan had a held candidate: the slow-supplier case went untested")
	}
	t.Logf("%d empty plans, %d of them over held candidates, kept empty with fewer suppliers", empties, heldButEmpty)
}
