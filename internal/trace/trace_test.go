package trace

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
)

func TestSynthesizeShape(t *testing.T) {
	tr := Synthesize("test", 500, 1, 42)
	if tr.N() != 500 {
		t.Fatalf("N = %d", tr.N())
	}
	for i, n := range tr.Nodes {
		if n.ID != i {
			t.Fatalf("node %d has id %d (ids must be dense)", i, n.ID)
		}
		if n.PingMS < 20 || n.PingMS >= 600 {
			t.Fatalf("implausible record: %+v", n)
		}
	}
	g, err := tr.Graph()
	if err != nil {
		t.Fatal(err)
	}
	// Crawl-like: low average degree, well under the M=5 the augmentation
	// later enforces.
	if avg := g.AvgDegree(); avg < 0.5 || avg > 5 {
		t.Errorf("average degree %v outside crawl-like range", avg)
	}
}

// TestSynthesizeKeepsDrawOrder pins the generator's draw sequence: the
// pings and the edge set of one synthesized trace, recorded while the
// crawl record still carried its IP, port and speed fields. Those draws
// are discarded now but must stay, or every topology shifts.
func TestSynthesizeKeepsDrawOrder(t *testing.T) {
	tr := Synthesize("d", 300, 1, 7)
	sum := 0
	var first []int
	for i, n := range tr.Nodes {
		sum += n.PingMS
		if i < 8 {
			first = append(first, n.PingMS)
		}
	}
	h := fnv.New64a()
	for _, e := range tr.Edges {
		fmt.Fprintf(h, "%d-%d,", e[0], e[1])
	}
	if want := []int{419, 96, 82, 81, 79, 36, 89, 304}; !slices.Equal(first, want) {
		t.Errorf("first pings %v, want %v", first, want)
	}
	if sum != 25346 {
		t.Errorf("ping sum %d, want 25346", sum)
	}
	if len(tr.Edges) != 299 || h.Sum64() != 0x84417f454e7abd88 {
		t.Errorf("edges %d hash %#x, want 299 0x84417f454e7abd88", len(tr.Edges), h.Sum64())
	}
}

func TestSynthesizeDeterminism(t *testing.T) {
	a := Synthesize("d", 200, 1, 7)
	b := Synthesize("d", 200, 1, 7)
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("edge counts differ across identical seeds")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("edges differ across identical seeds")
		}
	}
	if a.Nodes[10] != b.Nodes[10] {
		t.Fatal("node records differ across identical seeds")
	}
	c := Synthesize("d", 200, 1, 8)
	same := len(a.Edges) == len(c.Edges)
	if same {
		for i := range a.Edges {
			if a.Edges[i] != c.Edges[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGraphRejectsBadTraces(t *testing.T) {
	tr := &Trace{Name: "bad", Nodes: []Node{{ID: 5}}}
	if _, err := tr.Graph(); err == nil {
		t.Error("non-dense ids accepted")
	}
	tr = &Trace{Name: "bad", Nodes: []Node{{ID: 0}}, Edges: [][2]int{{0, 3}}}
	if _, err := tr.Graph(); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func BenchmarkSynthesize1000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Synthesize("bench", 1000, 1, int64(i))
	}
}
