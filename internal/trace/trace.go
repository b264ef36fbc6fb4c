// Package trace implements the Clip2-DSS-style overlay trace substrate.
//
// The paper evaluates on "30 real-trace P2P overlay topologies whose data
// was collected from Dec. 2000 to Jun. 2001 on dss.clip2.com (this web
// site is unavailable now)" — each record carrying a node's ID, IP, host
// name, port, ping time and speed, of which only ID, IP and ping are used
// (Section 5.1). The crawls are unrecoverable, so this package holds a
// deterministic synthesizer that emits crawl-like traces at the paper's
// scales (100–10000 nodes) with Gnutella-like connectivity, the repo's
// stand-in for the lost crawls. The paper's mandatory random-edge
// augmentation to M=5 neighbors (package overlay) then gives every node
// the neighbor floor the authors' runs had; scenario.Scenario.Config is
// where the two meet.
package trace

import (
	"fmt"
	"math/rand"
	"sort"

	"gossipstream/internal/overlay"
)

// Node is one trace record (a crawled peer): the fields a run reads.
type Node struct {
	ID     int
	PingMS int // round-trip ping in milliseconds
}

// Trace is an overlay trace: peers plus the crawled link set.
type Trace struct {
	Name  string
	Nodes []Node
	Edges [][2]int // pairs of Node.IDs
}

// N returns the node count.
func (t *Trace) N() int { return len(t.Nodes) }

// Graph converts the trace into an overlay graph. Node IDs must be dense
// in [0, N); Synthesize guarantees it.
func (t *Trace) Graph() (*overlay.Graph, error) {
	g := overlay.New(len(t.Nodes))
	for i, n := range t.Nodes {
		if n.ID != i {
			return nil, fmt.Errorf("trace %q: node ids not dense: index %d holds id %d", t.Name, i, n.ID)
		}
	}
	for _, e := range t.Edges {
		if e[0] < 0 || e[0] >= len(t.Nodes) || e[1] < 0 || e[1] >= len(t.Nodes) {
			return nil, fmt.Errorf("trace %q: edge %v out of range", t.Name, e)
		}
		g.AddEdge(overlay.NodeID(e[0]), overlay.NodeID(e[1]))
	}
	return g, nil
}

// Synthesize builds one Gnutella-like trace: preferential-attachment
// connectivity (attach edges per arriving node) and ping times drawn from
// a heavy-tailed distribution.
func Synthesize(name string, n, attach int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	t := &Trace{Name: name}
	for i := 0; i < n; i++ {
		ping := 20 + rng.Intn(80)
		if rng.Intn(10) == 0 { // heavy tail: transcontinental / modem peers
			ping += 100 + rng.Intn(400)
		}
		// The crawl record's IP octets, port and speed class are drawn and
		// discarded: no run reads them, but the draws keep the generator's
		// sequence, and so every synthesized topology, where it always was.
		for _, k := range [...]int{223, 256, 256, 254, 10, 8} {
			rng.Intn(k)
		}
		t.Nodes = append(t.Nodes, Node{ID: i, PingMS: ping})
	}
	g := overlay.Generate(overlay.KindPreferential, n, attach, rng)
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(overlay.NodeID(u)) {
			if int(v) > u {
				t.Edges = append(t.Edges, [2]int{u, int(v)})
			}
		}
	}
	sort.Slice(t.Edges, func(i, j int) bool {
		if t.Edges[i][0] != t.Edges[j][0] {
			return t.Edges[i][0] < t.Edges[j][0]
		}
		return t.Edges[i][1] < t.Edges[j][1]
	})
	return t
}
