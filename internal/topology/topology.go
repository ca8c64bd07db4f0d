package topology

import (
	"fmt"
	"math"
)

// Node identifies a node within its Topology.
type Node int

// Link is one physical member link of a LAG.
type Link struct {
	Capacity float64
	FailProb float64 // probability the link is down (renewal-reward estimate)
}

// LAG is an undirected edge: a bundle of physical links between two nodes.
type LAG struct {
	ID    int
	A, B  Node
	Links []Link
}

// Capacity is the total capacity of the LAG's member links.
func (l *LAG) Capacity() float64 {
	var c float64
	for _, ln := range l.Links {
		c += ln.Capacity
	}
	return c
}

// Other returns the endpoint opposite n.
func (l *LAG) Other(n Node) Node {
	if n == l.A {
		return l.B
	}
	return l.A
}

// Topology is an undirected multigraph of nodes connected by LAGs.
type Topology struct {
	names   []string
	nameIdx map[string]Node
	lags    []LAG
	adj     [][]int // node -> incident LAG ids
	virtual []bool  // §9 virtual gateway nodes (sparse; see IsVirtual)
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{nameIdx: make(map[string]Node)}
}

// AddNode adds a named node, or returns the existing node with that name.
func (t *Topology) AddNode(name string) Node {
	if n, ok := t.nameIdx[name]; ok {
		return n
	}
	n := Node(len(t.names))
	t.names = append(t.names, name)
	t.nameIdx[name] = n
	t.adj = append(t.adj, nil)
	return n
}

// AddLAG adds a LAG between a and b with the given member links and returns
// its id. Self-loops are rejected.
func (t *Topology) AddLAG(a, b Node, links []Link) (int, error) {
	if a == b {
		return 0, fmt.Errorf("topology: self-loop on node %q", t.names[a])
	}
	if len(links) == 0 {
		return 0, fmt.Errorf("topology: LAG between %q and %q has no links", t.names[a], t.names[b])
	}
	id := len(t.lags)
	t.lags = append(t.lags, LAG{ID: id, A: a, B: b, Links: append([]Link(nil), links...)})
	t.adj[a] = append(t.adj[a], id)
	t.adj[b] = append(t.adj[b], id)
	return id, nil
}

// MustAddLAG is AddLAG for construction code with static inputs.
func (t *Topology) MustAddLAG(a, b Node, links []Link) int {
	id, err := t.AddLAG(a, b, links)
	if err != nil {
		panic(err)
	}
	return id
}

// NumNodes reports the node count.
func (t *Topology) NumNodes() int { return len(t.names) }

// NumLAGs reports the LAG (edge) count.
func (t *Topology) NumLAGs() int { return len(t.lags) }

// NumLinks reports the total physical link count across all LAGs.
func (t *Topology) NumLinks() int {
	var n int
	for i := range t.lags {
		n += len(t.lags[i].Links)
	}
	return n
}

// Name returns the node's name.
func (t *Topology) Name(n Node) string { return t.names[n] }

// NodeByName looks a node up by name.
func (t *Topology) NodeByName(name string) (Node, bool) {
	n, ok := t.nameIdx[name]
	return n, ok
}

// LAG returns the LAG with the given id. The returned pointer stays valid
// until the next AddLAG.
func (t *Topology) LAG(id int) *LAG { return &t.lags[id] }

// LAGs returns all LAGs. The slice is owned by the topology.
func (t *Topology) LAGs() []LAG { return t.lags }

// Incident returns the ids of LAGs incident to n. The slice is owned by the
// topology.
func (t *Topology) Incident(n Node) []int { return t.adj[n] }

// LAGBetween returns the id of a LAG connecting a and b, or -1.
func (t *Topology) LAGBetween(a, b Node) int {
	for _, id := range t.adj[a] {
		l := &t.lags[id]
		if l.Other(a) == b {
			return id
		}
	}
	return -1
}

// MeanLAGCapacity is the average capacity across all LAGs — the paper's
// normalization constant for every degradation metric.
func (t *Topology) MeanLAGCapacity() float64 {
	if len(t.lags) == 0 {
		return 0
	}
	var s float64
	for i := range t.lags {
		s += t.lags[i].Capacity()
	}
	return s / float64(len(t.lags))
}

// Connected reports whether the topology is a single connected component.
func (t *Topology) Connected() bool {
	if len(t.names) == 0 {
		return true
	}
	seen := make([]bool, len(t.names))
	stack := []Node{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range t.adj[n] {
			o := t.lags[id].Other(n)
			if !seen[o] {
				seen[o] = true
				count++
				stack = append(stack, o)
			}
		}
	}
	return count == len(t.names)
}

// Hops returns every node's hop distance from the nearest of the given
// nodes, by one multi-source breadth-first search. A node none of them
// reaches reads 1<<30, more than any hop count.
func (t *Topology) Hops(from []Node) []int {
	dist := make([]int, len(t.names))
	for i := range dist {
		dist[i] = 1 << 30
	}
	queue := make([]Node, 0, len(t.names))
	for _, s := range from {
		if dist[s] != 0 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, id := range t.adj[u] {
			if v := t.lags[id].Other(u); dist[v] > dist[u]+1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Clone returns a deep copy of the topology.
func (t *Topology) Clone() *Topology {
	c := New()
	for _, name := range t.names {
		c.AddNode(name)
	}
	for i := range t.lags {
		l := &t.lags[i]
		c.MustAddLAG(l.A, l.B, l.Links)
	}
	c.virtual = append([]bool(nil), t.virtual...)
	return c
}

// SetLinkFailProb assigns the same failure probability to every link of
// every LAG; a convenience for topologies without telemetry (the paper does
// the analogue for Topology Zoo graphs using production-derived values).
func (t *Topology) SetLinkFailProb(p float64) {
	for i := range t.lags {
		for j := range t.lags[i].Links {
			t.lags[i].Links[j].FailProb = p
		}
	}
}

// ScenarioLogProb returns Σ log π over failed links + Σ log(1−π) over the
// rest — the log-probability of a failure scenario given independent links
// (§5.1). failed maps (lagID, linkIdx) pairs encoded as lagID*maxLinks+idx;
// callers in package failures use their own encoding, this helper serves
// tests and the probe CLI. The down set is passed as per-LAG bitmasks.
func (t *Topology) ScenarioLogProb(down map[int]uint64) float64 {
	var lp float64
	for i := range t.lags {
		mask := down[i]
		for j := range t.lags[i].Links {
			p := t.lags[i].Links[j].FailProb
			if mask&(1<<uint(j)) != 0 {
				lp += math.Log(p)
			} else {
				lp += math.Log(1 - p)
			}
		}
	}
	return lp
}
