package experiment

import (
	"reflect"
	"strings"
	"testing"

	"gossipstream/internal/core"
	"gossipstream/internal/overlay"
	"gossipstream/internal/sim"
)

// tiny returns a workload small enough for unit tests.
func tiny() Workload {
	w := Paper()
	w.Sizes = []int{80}
	w.SeedsPerSize = 2
	w.Base.Events = []sim.Event{sim.SwitchAt(25, -1)}
	w.Base.Spread = 12
	w.Base.Horizon = 150
	w.Workers = 2
	return w
}

// TestTopologyProperties checks a cell's overlay, the Section 5.1
// preparation its scenario compiles: min degree ≥ M, connected, the same
// cell reproducible, different replicas different.
func TestTopologyProperties(t *testing.T) {
	w := Paper()
	graph := func(replica int) *overlay.Graph {
		cfg, err := w.cell(200, replica).Config(sim.Fast)
		if err != nil {
			t.Fatal(err)
		}
		return cfg.Graph
	}
	g := graph(0)
	if g.N() != 200 {
		t.Fatalf("N = %d", g.N())
	}
	if g.MinDegree() < w.Base.M {
		t.Errorf("min degree %d < M=%d after augmentation", g.MinDegree(), w.Base.M)
	}
	if !g.Connected() {
		t.Error("topology disconnected")
	}
	// Same cell → identical topology; different replica → different.
	g2 := graph(0)
	if g.M() != g2.M() {
		t.Error("same cell produced different topologies")
	}
	g3 := graph(1)
	if g3.M() == g.M() && g3.N() == g.N() {
		// Equal edge count alone is possible; degree sequence equality is
		// overwhelmingly unlikely across replicas.
		same := true
		for u := 0; u < g.N(); u++ {
			if g.Degree(overlay.NodeID(u)) != g3.Degree(overlay.NodeID(u)) {
				same = false
				break
			}
		}
		if same {
			t.Error("different replicas produced identical topologies")
		}
	}
}

// TestWorkloadCellIsScenario pins the one way to build a run: a cell's
// result inside a sweep is exactly its scenario run on its own.
func TestWorkloadCellIsScenario(t *testing.T) {
	w := tiny()
	samples, err := w.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	alone, err := w.cell(80, 1).Run(sim.Fast)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(samples[1].Fast, alone) {
		t.Errorf("sweep cell differs from its scenario's run:\n%+v\nvs\n%+v",
			samples[1].Fast.FirstSwitch(), alone.FirstSwitch())
	}
}

func TestSweepPairsAlgorithms(t *testing.T) {
	w := tiny()
	samples, err := w.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("samples = %d, want 2", len(samples))
	}
	for _, s := range samples {
		if s.Fast == nil || s.Normal == nil {
			t.Fatal("missing algorithm result")
		}
		if s.Fast.Algorithm != "fast" || s.Normal.Algorithm != "normal" {
			t.Fatalf("mislabeled results: %s / %s", s.Fast.Algorithm, s.Normal.Algorithm)
		}
		if s.Fast.FirstSwitch().Nodes != s.Normal.FirstSwitch().Nodes {
			t.Error("paired runs saw different populations")
		}
	}
}

func TestSweepDeterminism(t *testing.T) {
	w := tiny()
	w.SeedsPerSize = 1
	a, err := w.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Fast.FirstSwitch().AvgPrepareS2() != b[0].Fast.FirstSwitch().AvgPrepareS2() {
		t.Error("sweep not reproducible")
	}
}

// TestSweepRejectsEmptyGrid: a sweep with no sizes, no replicas or a size
// its scenario rejects is an error, not a panic, and so is an ablation
// with no replicas.
func TestSweepRejectsEmptyGrid(t *testing.T) {
	for _, edit := range []func(*Workload){
		func(w *Workload) { w.SeedsPerSize = 0 },
		func(w *Workload) { w.SeedsPerSize = -1 },
		func(w *Workload) { w.Sizes = nil },
		func(w *Workload) { w.Sizes = []int{1} },
		func(w *Workload) { w.Sizes = []int{0} },
	} {
		w := tiny()
		edit(&w)
		if _, err := w.Sweep(); err == nil {
			t.Errorf("sizes %v, seeds %d: no error", w.Sizes, w.SeedsPerSize)
		}
	}
	w := tiny()
	w.SeedsPerSize = -1
	ab := Ablation{Workload: w, N: 80, Baseline: "normal", Variants: SplitVariants()}
	if _, err := ab.Run(); err == nil {
		t.Error("ablation with -1 replicas: no error")
	}
}

func TestRunSizeSweepAndFormatting(t *testing.T) {
	w := tiny()
	rows, err := w.RunSizeSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].N != 80 {
		t.Fatalf("rows = %+v", rows)
	}
	fp := FormatFinishPrepare(rows, false)
	st := FormatSwitchTime(rows, false)
	ov := FormatOverhead(rows, false)
	for _, out := range []string{fp, st, ov} {
		if !strings.Contains(out, "80") {
			t.Errorf("size missing from table:\n%s", out)
		}
	}
	if !strings.Contains(fp, "Figure 6") || !strings.Contains(st, "Figure 7") || !strings.Contains(ov, "Figure 8") {
		t.Error("figure labels missing")
	}
	if !strings.Contains(FormatSwitchTime(rows, true), "Figure 11") {
		t.Error("dynamic label missing")
	}
	csv := CSV(rows)
	if !strings.HasPrefix(csv, "n,samples,") || !strings.Contains(csv, "80,") {
		t.Errorf("csv malformed:\n%s", csv)
	}
}

func TestRunRatioTrack(t *testing.T) {
	w := tiny()
	w.SeedsPerSize = 1
	rt, err := w.RunRatioTrack(80)
	if err != nil {
		t.Fatal(err)
	}
	if rt.FastUndelivered.Len() == 0 || rt.NormalDelivered.Len() == 0 {
		t.Fatal("ratio series empty")
	}
	out := rt.Render()
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "undelivered") {
		t.Errorf("render missing labels:\n%s", out)
	}
}

func TestAblationRun(t *testing.T) {
	w := tiny()
	w.SeedsPerSize = 1
	ab := Ablation{
		Workload: w,
		N:        80,
		Baseline: "normal",
		Variants: []NamedFactory{
			{Name: "normal", Factory: sim.Normal},
			{Name: "fast", Factory: sim.Fast},
		},
	}
	rows, err := ab.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Reduction != 0 {
		t.Errorf("baseline reduction = %v, want 0", rows[0].Reduction)
	}
	out := FormatAblation("test", rows)
	if !strings.Contains(out, "normal") || !strings.Contains(out, "fast") {
		t.Error("ablation table incomplete")
	}

	// A baseline that names no variant would leave the reduction column
	// NaN in every row; it must be an error that names the baseline.
	ab.Baseline = "norml"
	if _, err := ab.Run(); err == nil || !strings.Contains(err.Error(), `"norml"`) {
		t.Errorf("missing baseline: err = %v, want one naming it", err)
	}
}

func TestVariantSets(t *testing.T) {
	if len(PriorityVariants()) != 5 {
		t.Error("priority variant set wrong")
	}
	if len(SplitVariants()) != 3 {
		t.Error("split variant set wrong")
	}
	for _, v := range PriorityVariants() {
		if v.Factory == nil {
			t.Fatalf("variant %s has nil factory", v.Name)
		}
		if a := v.Factory(); a == nil {
			t.Fatalf("variant %s built nil algorithm", v.Name)
		}
	}
	// The ablation factories must build *distinctly configured* schedulers.
	fs := PriorityVariants()[2].Factory().(*core.FastSwitch)
	if fs.Options.Rarity != core.RarityTraditional {
		t.Error("rarity variant misconfigured")
	}
}

func TestQsOverride(t *testing.T) {
	w := tiny()
	w.SeedsPerSize = 1
	rows, err := StartupThresholdSweep(w, 80, []int{20, 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("sweep shape wrong: %d rows", len(rows))
	}
	// A smaller startup threshold must prepare sooner.
	if rows[0].FastPrepareS2 >= rows[1].FastPrepareS2 {
		t.Errorf("Qs=20 prepare %.2f not below Qs=50 prepare %.2f",
			rows[0].FastPrepareS2, rows[1].FastPrepareS2)
	}
}
