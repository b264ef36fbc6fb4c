package main

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParallelSplitTwoEqualStreams(t *testing.T) {
	demands := []ParallelDemand{
		{Backlog: 50, Deadline: 5},
		{Backlog: 50, Deadline: 5},
	}
	rates, err := ParallelSplit(20, demands)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rates[0]-rates[1]) > 1e-6 {
		t.Errorf("symmetric demands got asymmetric rates %v", rates)
	}
	if math.Abs(rates[0]+rates[1]-20) > 1e-6 {
		t.Errorf("rates %v do not use the full inbound", rates)
	}
}

func TestParallelSplitSkewedBacklogs(t *testing.T) {
	demands := []ParallelDemand{
		{Backlog: 90, Deadline: 5},
		{Backlog: 10, Deadline: 5},
	}
	rates, err := ParallelSplit(20, demands)
	if err != nil {
		t.Fatal(err)
	}
	if rates[0] <= rates[1] {
		t.Errorf("larger backlog got smaller rate: %v", rates)
	}
	// Equal lateness at the optimum: Q0/I0 − D = Q1/I1 − D.
	l0 := demands[0].Backlog/rates[0] - demands[0].Deadline
	l1 := demands[1].Backlog/rates[1] - demands[1].Deadline
	if math.Abs(l0-l1) > 1e-3 {
		t.Errorf("latenesses not equalized: %v vs %v", l0, l1)
	}
}

func TestParallelSplitRespectsSupply(t *testing.T) {
	demands := []ParallelDemand{
		{Backlog: 100, Deadline: 2, Supply: 3},
		{Backlog: 10, Deadline: 10},
	}
	rates, err := ParallelSplit(20, demands)
	if err != nil {
		t.Fatal(err)
	}
	if rates[0] > 3+1e-9 {
		t.Errorf("supply cap violated: %v", rates[0])
	}
	// The freed capacity goes to the other stream.
	if rates[1] < 1 {
		t.Errorf("uncapped stream starved: %v", rates)
	}
}

func TestParallelSplitZeroBacklog(t *testing.T) {
	demands := []ParallelDemand{
		{Backlog: 0, Deadline: 1},
		{Backlog: 40, Deadline: 4},
	}
	rates, err := ParallelSplit(15, demands)
	if err != nil {
		t.Fatal(err)
	}
	if rates[0] != 0 {
		t.Errorf("idle stream received rate %v", rates[0])
	}
	if rates[1] <= 0 {
		t.Error("backlogged stream starved")
	}
}

func TestParallelSplitRejectsBadInbound(t *testing.T) {
	if _, err := ParallelSplit(0, nil); err == nil {
		t.Error("zero inbound accepted")
	}
	if _, err := ParallelSplit(-3, nil); err == nil {
		t.Error("negative inbound accepted")
	}
}

func TestParallelSplitAllIdle(t *testing.T) {
	rates, err := ParallelSplit(15, []ParallelDemand{{Backlog: 0}, {Backlog: 0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rates {
		if r != 0 {
			t.Errorf("idle streams got %v", rates)
		}
	}
}

func TestParallelSplitOptimality(t *testing.T) {
	// No grid allocation beats the computed split on worst lateness.
	demands := []ParallelDemand{
		{Backlog: 80, Deadline: 3},
		{Backlog: 30, Deadline: 8},
		{Backlog: 50, Deadline: 5},
	}
	const inbound = 18.0
	rates, err := ParallelSplit(inbound, demands)
	if err != nil {
		t.Fatal(err)
	}
	best := ParallelLateness(rates, demands)
	for a := 0.5; a < inbound; a += 0.5 {
		for b := 0.5; a+b < inbound; b += 0.5 {
			c := inbound - a - b
			cand := ParallelLateness([]float64{a, b, c}, demands)
			if cand < best-1e-3 {
				t.Fatalf("grid allocation (%v,%v,%v) lateness %v beats optimum %v",
					a, b, c, cand, best)
			}
		}
	}
}

func TestQuickParallelSplitInvariants(t *testing.T) {
	f := func(q1, q2, q3 uint8, inboundRaw uint8) bool {
		inbound := 1 + float64(inboundRaw%30)
		demands := []ParallelDemand{
			{Backlog: float64(q1 % 100), Deadline: 2},
			{Backlog: float64(q2 % 100), Deadline: 6},
			{Backlog: float64(q3 % 100), Deadline: 10},
		}
		rates, err := ParallelSplit(inbound, demands)
		if err != nil {
			return false
		}
		sum := 0.0
		for i, r := range rates {
			if r < -1e-9 {
				return false
			}
			if demands[i].Backlog == 0 && r != 0 {
				return false
			}
			sum += r
		}
		return sum <= inbound+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
