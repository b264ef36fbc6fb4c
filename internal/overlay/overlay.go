// Package overlay provides the undirected overlay graphs the simulations
// run on: construction, the paper's random-edge augmentation to M
// connected neighbors per node, connectivity checks, and generators for
// Gnutella-like topologies standing in for the dead dss.clip2.com traces
// (package trace explains the substitution).
package overlay

import (
	"fmt"
	"math/rand"
	"sort"
)

// NodeID indexes a node in a graph; ids are dense in [0, N).
type NodeID int

// Graph is a simple undirected graph (no self-loops, no multi-edges).
// It is not safe for concurrent mutation.
type Graph struct {
	adj   [][]NodeID
	edges int
}

// New returns an empty graph on n nodes.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("overlay: negative node count %d", n))
	}
	return &Graph{adj: make([][]NodeID, n)}
}

// N returns the node count.
func (g *Graph) N() int { return len(g.adj) }

// M returns the edge count.
func (g *Graph) M() int { return g.edges }

// Degree returns the degree of u.
func (g *Graph) Degree(u NodeID) int { return len(g.adj[u]) }

// Neighbors returns u's adjacency list. The slice is owned by the graph;
// callers must not mutate it.
func (g *Graph) Neighbors(u NodeID) []NodeID { return g.adj[u] }

// HasEdge reports whether {u,v} is present.
func (g *Graph) HasEdge(u, v NodeID) bool {
	// Scan the shorter list; degrees are tiny (≈M) in every workload.
	a, b := u, v
	if len(g.adj[b]) < len(g.adj[a]) {
		a, b = b, a
	}
	for _, w := range g.adj[a] {
		if w == b {
			return true
		}
	}
	return false
}

// AddEdge inserts the undirected edge {u,v}; it reports false for
// self-loops and duplicates.
func (g *Graph) AddEdge(u, v NodeID) bool {
	if u == v || g.HasEdge(u, v) {
		return false
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.edges++
	return true
}

// AddNode grows the graph by one isolated node and returns its id.
// Supports the dynamic-environment experiments, where 5% of nodes join
// per scheduling period.
func (g *Graph) AddNode() NodeID {
	g.adj = append(g.adj, nil)
	return NodeID(len(g.adj) - 1)
}

// ClearNode removes every edge incident to u (the node slot itself
// remains, as dense ids are load-bearing for the simulator). It returns
// the former neighbors.
func (g *Graph) ClearNode(u NodeID) []NodeID {
	former := append([]NodeID(nil), g.adj[u]...)
	for _, v := range former {
		removeFrom(&g.adj[v], u)
		g.edges--
	}
	g.adj[u] = g.adj[u][:0]
	return former
}

// RemoveEdge deletes the undirected edge {u,v}; it reports whether the
// edge existed.
func (g *Graph) RemoveEdge(u, v NodeID) bool {
	if !removeFrom(&g.adj[u], v) {
		return false
	}
	removeFrom(&g.adj[v], u)
	g.edges--
	return true
}

func removeFrom(list *[]NodeID, v NodeID) bool {
	l := *list
	for i, w := range l {
		if w == v {
			l[i] = l[len(l)-1]
			*list = l[:len(l)-1]
			return true
		}
	}
	return false
}

// MinDegree returns the smallest degree in the graph (0 for empty graphs).
func (g *Graph) MinDegree() int {
	if g.N() == 0 {
		return 0
	}
	deg := len(g.adj[0])
	for _, l := range g.adj[1:] {
		deg = min(deg, len(l))
	}
	return deg
}

// MinDegreeNode returns the lowest-id node of minimum degree — the
// auto-picked first source of every backend, which holds exactly M
// neighbors like the paper's. The graph must not be empty.
func (g *Graph) MinDegreeNode() NodeID {
	best := NodeID(0)
	for u := 1; u < g.N(); u++ {
		if g.Degree(NodeID(u)) < g.Degree(best) {
			best = NodeID(u)
		}
	}
	return best
}

// AvgDegree returns the mean degree.
func (g *Graph) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return 2 * float64(g.edges) / float64(g.N())
}

// Connected reports whether the graph is a single connected component.
func (g *Graph) Connected() bool {
	if g.N() == 0 {
		return true
	}
	return len(g.componentFrom(0)) == g.N()
}

// Components returns the connected components, each sorted ascending,
// ordered by their smallest member.
func (g *Graph) Components() [][]NodeID {
	seen := make([]bool, g.N())
	var comps [][]NodeID
	for u := 0; u < g.N(); u++ {
		if seen[u] {
			continue
		}
		comp := g.componentFrom(NodeID(u))
		for _, v := range comp {
			seen[v] = true
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	return comps
}

func (g *Graph) componentFrom(start NodeID) []NodeID {
	seen := make(map[NodeID]bool, 64)
	queue := []NodeID{start}
	seen[start] = true
	var out []NodeID
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		out = append(out, u)
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return out
}

// BFSDepths returns each node's hop distance from start (-1 when
// unreachable). Used by tests and by the experiment harness to report
// propagation depth.
func (g *Graph) BFSDepths(start NodeID) []int {
	depth := make([]int, g.N())
	for i := range depth {
		depth[i] = -1
	}
	depth[start] = 0
	queue := []NodeID{start}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if depth[v] < 0 {
				depth[v] = depth[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return depth
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := New(g.N())
	c.edges = g.edges
	for u, l := range g.adj {
		c.adj[u] = append([]NodeID(nil), l...)
	}
	return c
}

// AugmentMinDegree adds uniformly random edges until every node has at
// least m neighbors — the paper's preparation step: "we add random edges
// into each overlay to let every node hold M=5 connected neighbors"
// (Section 5.1). The result is also made connected (random components are
// bridged first, which the M=5 requirement almost always implies anyway).
func AugmentMinDegree(g *Graph, m int, rng *rand.Rand) {
	if m >= g.N() {
		panic(fmt.Sprintf("overlay: cannot reach min degree %d with %d nodes", m, g.N()))
	}
	EnsureConnected(g, rng)
	// Collect nodes below target degree and keep wiring random pairs.
	deficient := make([]NodeID, 0, g.N())
	for u := 0; u < g.N(); u++ {
		if g.Degree(NodeID(u)) < m {
			deficient = append(deficient, NodeID(u))
		}
	}
	for len(deficient) > 0 {
		u := deficient[len(deficient)-1]
		if g.Degree(u) >= m {
			deficient = deficient[:len(deficient)-1]
			continue
		}
		// Prefer pairing two deficient nodes so the augmentation stays
		// close to the target degree; fall back to any random node.
		var v NodeID
		if len(deficient) > 1 && rng.Intn(2) == 0 {
			v = deficient[rng.Intn(len(deficient)-1)]
		} else {
			v = NodeID(rng.Intn(g.N()))
		}
		if u == v || g.HasEdge(u, v) {
			// Dense corner: retry with a fresh uniform pick; progress is
			// guaranteed because m < N.
			v = NodeID(rng.Intn(g.N()))
			if u == v || g.HasEdge(u, v) {
				continue
			}
		}
		g.AddEdge(u, v)
	}
}

// EnsureConnected bridges components with random edges until the graph is
// connected.
func EnsureConnected(g *Graph, rng *rand.Rand) {
	comps := g.Components()
	for len(comps) > 1 {
		// Link a random member of each subsequent component to a random
		// member of the first (growing) one.
		base := comps[0]
		next := comps[1]
		u := base[rng.Intn(len(base))]
		v := next[rng.Intn(len(next))]
		g.AddEdge(u, v)
		base = append(base, next...)
		comps = append([][]NodeID{base}, comps[2:]...)
	}
}

// GeneratorKind names a synthetic topology family.
type GeneratorKind int

// Topology generator families.
const (
	// KindPreferential grows a preferential-attachment graph: power-law-ish
	// degrees, low average degree — the closest stand-in for 2000/2001
	// Gnutella crawls.
	KindPreferential GeneratorKind = iota
	// KindUniform wires each node to k uniform random earlier nodes.
	KindUniform
	// KindRing is a ring plus random chords (small-world-ish); used in
	// tests for its predictable structure.
	KindRing
)

// Generate builds a topology of the given family with n nodes. attach
// controls the edges contributed per arriving node (the Gnutella crawls'
// average degree was well under M; 1-2 is faithful).
func Generate(kind GeneratorKind, n, attach int, rng *rand.Rand) *Graph {
	if attach < 1 {
		attach = 1
	}
	g := New(n)
	switch kind {
	case KindPreferential:
		generatePreferential(g, attach, rng)
	case KindUniform:
		for u := 1; u < n; u++ {
			for e := 0; e < attach; e++ {
				v := NodeID(rng.Intn(u))
				g.AddEdge(NodeID(u), v)
			}
		}
	case KindRing:
		for u := 0; u < n; u++ {
			g.AddEdge(NodeID(u), NodeID((u+1)%n))
		}
		for e := 0; e < n*(attach-1); e++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			g.AddEdge(u, v)
		}
	default:
		panic(fmt.Sprintf("overlay: unknown generator kind %d", int(kind)))
	}
	return g
}

// generatePreferential implements a Barabási–Albert-style process using a
// repeated-endpoint urn: each new node attaches `attach` edges to
// endpoints sampled proportionally to degree.
func generatePreferential(g *Graph, attach int, rng *rand.Rand) {
	n := g.N()
	if n == 0 {
		return
	}
	if n == 1 {
		return
	}
	// Seed with a small clique so early picks have endpoints.
	seed := attach + 1
	if seed > n {
		seed = n
	}
	var urn []NodeID
	for u := 0; u < seed; u++ {
		for v := 0; v < u; v++ {
			if g.AddEdge(NodeID(u), NodeID(v)) {
				urn = append(urn, NodeID(u), NodeID(v))
			}
		}
	}
	for u := seed; u < n; u++ {
		added := 0
		for tries := 0; added < attach && tries < attach*8; tries++ {
			var v NodeID
			if len(urn) == 0 {
				v = NodeID(rng.Intn(u))
			} else {
				v = urn[rng.Intn(len(urn))]
			}
			if g.AddEdge(NodeID(u), v) {
				urn = append(urn, NodeID(u), v)
				added++
			}
		}
	}
}
