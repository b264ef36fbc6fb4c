package core

import (
	"math"
	"testing"

	"gossipstream/internal/buffer"
	"gossipstream/internal/model"
	"gossipstream/internal/segment"
)

// mapView is a deterministic View for tests: explicit holdings with
// explicit FIFO positions.
type mapView struct {
	capacity int
	pos      map[segment.ID]int // position from tail; presence = held
}

func newMapView(capacity int) *mapView {
	return &mapView{capacity: capacity, pos: map[segment.ID]int{}}
}

func (v *mapView) add(id segment.ID, pos int) *mapView { v.pos[id] = pos; return v }

func (v *mapView) Has(id segment.ID) bool             { _, ok := v.pos[id]; return ok }
func (v *mapView) PositionFromTail(id segment.ID) int { return v.pos[id] }
func (v *mapView) Cap() int                           { return v.capacity }

func (v *mapView) AvailWords(w0 int, dst []uint64) {
	clear(dst)
	for id := range v.pos {
		if off := int(id) - w0*64; off >= 0 && off < len(dst)*64 {
			dst[off>>6] |= 1 << uint(off&63)
		}
	}
}

func basicEnv() *Env {
	return &Env{
		Tau:      1.0,
		P:        10,
		Q:        10,
		Inbound:  15,
		Playhead: 100,
	}
}

func TestUrgencyEquation7(t *testing.T) {
	env := basicEnv()
	env.Suppliers = []Supplier{{ID: 1, Rate: 5, View: newMapView(600).add(150, 10)}}
	env.NeedOld = []segment.ID{150}
	cands := BuildCandidates(env, ScoreOptions{}, nil)
	if len(cands) != 1 {
		t.Fatalf("got %d candidates", len(cands))
	}
	// t_i = (150-100)/10 - 1/5 = 4.8; urgency = 1/4.8.
	want := 1 / 4.8
	if math.Abs(cands[0].Urgency-want) > 1e-12 {
		t.Errorf("urgency = %v, want %v", cands[0].Urgency, want)
	}
}

func TestUrgencySaturation(t *testing.T) {
	env := basicEnv()
	env.Suppliers = []Supplier{{ID: 1, Rate: 5, View: newMapView(600).add(100, 10).add(101, 10)}}
	// Segment at the playhead: slack = 0/10 - 1/5 < 0 → saturated.
	env.NeedOld = []segment.ID{100, 101}
	cands := BuildCandidates(env, ScoreOptions{}, nil)
	if cands[0].Urgency != UrgencySaturation {
		t.Errorf("deadline-due urgency = %v, want saturation", cands[0].Urgency)
	}
	// One segment ahead: slack = 0.1 - 0.2 < 0 → still saturated.
	if cands[1].Urgency != UrgencySaturation {
		t.Errorf("near-deadline urgency = %v, want saturation", cands[1].Urgency)
	}
}

func TestMaxRateIsEquation6(t *testing.T) {
	env := basicEnv()
	env.Suppliers = []Supplier{
		{ID: 1, Rate: 3, View: newMapView(600).add(150, 10)},
		{ID: 2, Rate: 9, View: newMapView(600).add(150, 10)},
		{ID: 3, Rate: 20, View: newMapView(600)}, // does not hold it
	}
	env.NeedOld = []segment.ID{150}
	cands := BuildCandidates(env, ScoreOptions{}, nil)
	if cands[0].MaxRate != 9 {
		t.Errorf("Ri = %v, want max over holders = 9", cands[0].MaxRate)
	}
}

func TestRarityEquation8(t *testing.T) {
	env := basicEnv()
	env.Suppliers = []Supplier{
		{ID: 1, Rate: 5, View: newMapView(600).add(150, 300)},
		{ID: 2, Rate: 5, View: newMapView(600).add(150, 450)},
	}
	env.NeedOld = []segment.ID{150}
	cands := BuildCandidates(env, ScoreOptions{}, nil)
	want := (300.0 / 600.0) * (450.0 / 600.0)
	if math.Abs(cands[0].Rarity-want) > 1e-12 {
		t.Errorf("rarity = %v, want %v", cands[0].Rarity, want)
	}
}

func TestRarityTraditional(t *testing.T) {
	env := basicEnv()
	env.Suppliers = []Supplier{
		{ID: 1, Rate: 5, View: newMapView(600).add(150, 300)},
		{ID: 2, Rate: 5, View: newMapView(600).add(150, 450)},
	}
	env.NeedOld = []segment.ID{150}
	cands := BuildCandidates(env, ScoreOptions{Rarity: RarityTraditional}, nil)
	if cands[0].Rarity != 0.5 { // 1/n_i with n_i = 2
		t.Errorf("traditional rarity = %v, want 0.5", cands[0].Rarity)
	}
}

func TestPriorityEquation9(t *testing.T) {
	env := basicEnv()
	// Far-future segment held near eviction: rarity dominates urgency.
	env.Suppliers = []Supplier{{ID: 1, Rate: 10, View: newMapView(600).add(400, 590)}}
	env.NeedOld = []segment.ID{400}
	cands := BuildCandidates(env, ScoreOptions{}, nil)
	c := cands[0]
	if c.Priority != math.Max(c.Urgency, c.Rarity) {
		t.Errorf("priority = %v, want max(%v, %v)", c.Priority, c.Urgency, c.Rarity)
	}
	if c.Priority != c.Rarity {
		t.Errorf("expected rarity-dominated priority, got urgency %v rarity %v", c.Urgency, c.Rarity)
	}
}

func TestPriorityModes(t *testing.T) {
	env := basicEnv()
	env.Suppliers = []Supplier{{ID: 1, Rate: 10, View: newMapView(600).add(400, 590)}}
	env.NeedOld = []segment.ID{400}
	u := BuildCandidates(env, ScoreOptions{Priority: PriorityUrgencyOnly}, nil)[0]
	r := BuildCandidates(env, ScoreOptions{Priority: PriorityRarityOnly}, nil)[0]
	if u.Priority != u.Urgency {
		t.Error("urgency-only mode ignored")
	}
	if r.Priority != r.Rarity {
		t.Error("rarity-only mode ignored")
	}
}

func TestCandidatesDropUnsupplied(t *testing.T) {
	env := basicEnv()
	env.Suppliers = []Supplier{{ID: 1, Rate: 5, View: newMapView(600).add(150, 10)}}
	env.NeedOld = []segment.ID{150, 151}
	cands := BuildCandidates(env, ScoreOptions{}, nil)
	if len(cands) != 1 || cands[0].ID != 150 {
		t.Fatalf("candidates = %+v, want only 150", cands)
	}
}

func TestBufferSatisfiesView(t *testing.T) {
	var _ View = buffer.New(600)
	var _ View = &buffer.Map{}
}

// fullView holds every segment with a fixed position.
type fullView struct{ capacity, position int }

func (v fullView) Has(segment.ID) bool             { return true }
func (v fullView) PositionFromTail(segment.ID) int { return v.position }
func (v fullView) Cap() int                        { return v.capacity }

func (v fullView) AvailWords(_ int, dst []uint64) {
	for i := range dst {
		dst[i] = ^uint64(0)
	}
}

func TestGreedyAssignmentSpreadsOverSuppliers(t *testing.T) {
	// Algorithm 1: per-supplier queueing time must spread requests across
	// suppliers rather than pile onto the fastest one.
	env := basicEnv()
	env.Inbound = 12
	env.Suppliers = []Supplier{
		{ID: 1, Rate: 4, View: fullView{600, 300}},
		{ID: 2, Rate: 4, View: fullView{600, 300}},
		{ID: 3, Rate: 4, View: fullView{600, 300}},
	}
	for id := segment.ID(101); id <= 140; id++ {
		env.NeedOld = append(env.NeedOld, id)
	}
	var plan Plan
	fast := &FastSwitch{}
	fast.Plan(env, &plan)
	perSupplier := map[SupplierID]int{}
	for _, r := range plan.Requests {
		perSupplier[r.Supplier]++
		if r.ExpectedAt > env.Tau+1e-9 {
			t.Errorf("request for %v expected at %v > τ", r.Segment, r.ExpectedAt)
		}
	}
	// Each supplier can deliver at most R(j)·τ = 4 segments within τ.
	for id, n := range perSupplier {
		if n > 4 {
			t.Errorf("supplier %d assigned %d > R·τ segments", id, n)
		}
	}
	if len(plan.Requests) != 12 {
		t.Errorf("requests = %d, want inbound budget 12", len(plan.Requests))
	}
}

func TestPlanRespectsInboundBudget(t *testing.T) {
	env := basicEnv()
	env.Inbound = 5
	env.Suppliers = []Supplier{{ID: 1, Rate: 30, View: fullView{600, 300}}}
	for id := segment.ID(101); id <= 160; id++ {
		env.NeedOld = append(env.NeedOld, id)
	}
	var plan Plan
	fast := &FastSwitch{}
	fast.Plan(env, &plan)
	if len(plan.Requests) != 5 {
		t.Errorf("fast requests = %d, want 5", len(plan.Requests))
	}
	normal := &NormalSwitch{}
	normal.Plan(env, &plan)
	if len(plan.Requests) != 5 {
		t.Errorf("normal requests = %d, want 5", len(plan.Requests))
	}
}

func TestNormalStrictPriority(t *testing.T) {
	// Normal: all budget to S1 while S1 supply exists; S2 gets leftovers.
	env := basicEnv()
	env.Inbound = 8
	env.Suppliers = []Supplier{{ID: 1, Rate: 30, View: fullView{600, 300}}}
	env.NeedOld = []segment.ID{101, 102, 103, 104, 105, 106}
	env.NeedNew = []segment.ID{501, 502, 503, 504, 505}
	var plan Plan
	normal := &NormalSwitch{}
	normal.Plan(env, &plan)
	old, new_ := 0, 0
	for i, r := range plan.Requests {
		if r.Stream == StreamOld {
			old++
			if i >= 6 {
				t.Error("S1 request ranked after an S2 request under normal")
			}
		} else {
			new_++
		}
	}
	if old != 6 || new_ != 2 {
		t.Errorf("normal split = (%d, %d), want (6, 2)", old, new_)
	}
	// S1 requests in ascending id (deadline) order.
	for i := 1; i < 6; i++ {
		if plan.Requests[i].Segment < plan.Requests[i-1].Segment {
			t.Error("normal S1 order not ascending")
		}
	}
}

func TestFastSplitFigure2Shape(t *testing.T) {
	// Figure 2's setting: 7-segment budget, 5 S1 + 5 S2 available. The
	// fast algorithm interleaves (taking fewer S1 than normal), the normal
	// algorithm takes all 5 S1 first.
	mkEnv := func() *Env {
		env := basicEnv()
		env.Inbound = 7
		env.Suppliers = []Supplier{
			{ID: 1, Rate: 4, View: fullView{600, 550}},
			{ID: 2, Rate: 4, View: fullView{600, 550}},
		}
		env.NeedOld = []segment.ID{101, 102, 103, 104, 105}
		env.NeedNew = []segment.ID{501, 502, 503, 504, 505}
		return env
	}
	var plan Plan
	fast := &FastSwitch{}
	fast.Plan(mkEnv(), &plan)
	fastOld, fastNew := countStreams(plan.Requests)
	if fastNew == 0 {
		t.Fatal("fast plan took no S2 segments")
	}
	if fastOld+fastNew != 7 {
		t.Fatalf("fast plan size = %d, want 7", fastOld+fastNew)
	}

	normal := &NormalSwitch{}
	normal.Plan(mkEnv(), &plan)
	normOld, normNew := countStreams(plan.Requests)
	if normOld != 5 || normNew != 2 {
		t.Fatalf("normal split = (%d, %d), want (5, 2)", normOld, normNew)
	}
	if fastOld >= normOld {
		t.Errorf("fast takes %d S1 segments, should be fewer than normal's %d", fastOld, normOld)
	}
}

func countStreams(reqs []Request) (old, new_ int) {
	for _, r := range reqs {
		if r.Stream == StreamOld {
			old++
		} else {
			new_++
		}
	}
	return old, new_
}

func TestFastReportsSplitCase(t *testing.T) {
	env := basicEnv()
	env.Suppliers = []Supplier{
		{ID: 1, Rate: 10, View: fullView{600, 300}},
		{ID: 2, Rate: 10, View: fullView{600, 300}},
	}
	for id := segment.ID(101); id <= 150; id++ {
		env.NeedOld = append(env.NeedOld, id)
	}
	for id := segment.ID(501); id <= 550; id++ {
		env.NeedNew = append(env.NeedNew, id)
	}
	var plan Plan
	fast := &FastSwitch{}
	fast.Plan(env, &plan)
	if plan.Split.Case == 0 {
		t.Error("plan did not record the rate-split case")
	}
	if plan.Q1 != 50 || plan.Q2 != 50 {
		t.Errorf("plan backlogs = (%d, %d), want (50, 50)", plan.Q1, plan.Q2)
	}
	if plan.O1 == 0 || plan.O2 == 0 {
		t.Error("schedulable sets empty")
	}
}

func TestFastFollowsOptimalSplitWhenUnconstrained(t *testing.T) {
	// With abundant supply on both streams, the request counts should
	// track the closed-form r1/r2 (up to integer truncation and leftover
	// redistribution).
	env := basicEnv()
	env.Inbound = 15
	env.Suppliers = []Supplier{
		{ID: 1, Rate: 15, View: fullView{600, 300}},
		{ID: 2, Rate: 15, View: fullView{600, 300}},
		{ID: 3, Rate: 15, View: fullView{600, 300}},
	}
	for id := segment.ID(101); id <= 250; id++ {
		env.NeedOld = append(env.NeedOld, id)
	}
	for id := segment.ID(501); id <= 550; id++ {
		env.NeedNew = append(env.NeedNew, id)
	}
	var plan Plan
	fast := &FastSwitch{}
	fast.Plan(env, &plan)
	old, new_ := countStreams(plan.Requests)

	params := model.Params{Q: 10, Q1: 150, Q2: 50, P: 10, I: 15}
	r1, r2 := params.OptimalSplit()
	if math.Abs(float64(old)-r1) > 2 {
		t.Errorf("S1 requests = %d, optimal r1 = %v", old, r1)
	}
	if math.Abs(float64(new_)-r2) > 2 {
		t.Errorf("S2 requests = %d, optimal r2 = %v", new_, r2)
	}
}

func TestDisableSplitAblation(t *testing.T) {
	env := basicEnv()
	env.Inbound = 6
	env.Suppliers = []Supplier{{ID: 1, Rate: 30, View: fullView{600, 550}}}
	env.NeedOld = []segment.ID{101, 102, 103}
	env.NeedNew = []segment.ID{501, 502, 503}
	var plan Plan
	fast := &FastSwitch{DisableSplit: true}
	fast.Plan(env, &plan)
	if len(plan.Requests) != 6 {
		t.Errorf("ablated plan size = %d, want 6", len(plan.Requests))
	}
	// Pure priority order: requests must be non-increasing in priority.
	for i := 1; i < len(plan.Requests); i++ {
		if plan.Requests[i].Priority > plan.Requests[i-1].Priority+1e-12 {
			t.Error("ablated plan not in priority order")
		}
	}
}

func TestEmptyEnvironment(t *testing.T) {
	env := basicEnv()
	var plan Plan
	fast := &FastSwitch{}
	fast.Plan(env, &plan)
	if len(plan.Requests) != 0 {
		t.Error("plan from empty environment")
	}
	normal := &NormalSwitch{}
	normal.Plan(env, &plan)
	if len(plan.Requests) != 0 {
		t.Error("normal plan from empty environment")
	}
}

func TestZeroBudget(t *testing.T) {
	env := basicEnv()
	env.Inbound = 0
	env.Suppliers = []Supplier{{ID: 1, Rate: 5, View: fullView{600, 300}}}
	env.NeedOld = []segment.ID{101}
	var plan Plan
	fast := &FastSwitch{}
	fast.Plan(env, &plan)
	if len(plan.Requests) != 0 {
		t.Error("requests despite zero inbound")
	}
}

func TestPlanReuseResets(t *testing.T) {
	env := basicEnv()
	env.Suppliers = []Supplier{{ID: 1, Rate: 5, View: fullView{600, 300}}}
	env.NeedOld = []segment.ID{101, 102}
	var plan Plan
	fast := &FastSwitch{}
	fast.Plan(env, &plan)
	first := len(plan.Requests)
	empty := basicEnv()
	fast.Plan(empty, &plan)
	if len(plan.Requests) != 0 {
		t.Errorf("plan reuse leaked %d of %d requests", len(plan.Requests), first)
	}
}

func TestStreamString(t *testing.T) {
	if StreamOld.String() != "S1" || StreamNew.String() != "S2" {
		t.Error("stream names wrong")
	}
	if Stream(9).String() != "S?9" {
		t.Error("unknown stream formatting wrong")
	}
}

func BenchmarkFastPlan(b *testing.B) {
	env := basicEnv()
	env.Suppliers = []Supplier{
		{ID: 1, Rate: 15, View: fullView{600, 300}},
		{ID: 2, Rate: 15, View: fullView{600, 300}},
		{ID: 3, Rate: 15, View: fullView{600, 300}},
		{ID: 4, Rate: 15, View: fullView{600, 300}},
		{ID: 5, Rate: 15, View: fullView{600, 300}},
	}
	for id := segment.ID(101); id <= 250; id++ {
		env.NeedOld = append(env.NeedOld, id)
	}
	for id := segment.ID(501); id <= 550; id++ {
		env.NeedNew = append(env.NeedNew, id)
	}
	var plan Plan
	fast := &FastSwitch{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fast.Plan(env, &plan)
	}
}

func BenchmarkNormalPlan(b *testing.B) {
	env := basicEnv()
	env.Suppliers = []Supplier{
		{ID: 1, Rate: 15, View: fullView{600, 300}},
		{ID: 2, Rate: 15, View: fullView{600, 300}},
	}
	for id := segment.ID(101); id <= 250; id++ {
		env.NeedOld = append(env.NeedOld, id)
	}
	var plan Plan
	normal := &NormalSwitch{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		normal.Plan(env, &plan)
	}
}
