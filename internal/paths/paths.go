package paths

import (
	"fmt"
	"math"
	"slices"

	"raha/internal/topology"
)

// Path is a loop-free node sequence together with the LAGs it traverses.
type Path struct {
	Nodes []topology.Node
	LAGs  []int
}

// Weight is an edge-weight function over LAG ids. Nil means unit weights
// (hop count).
type Weight func(lagID int) float64

// HopWeight is the unit weight function.
func HopWeight(int) float64 { return 1 }

// Equal reports whether two paths traverse the same LAG sequence.
func Equal(a, b Path) bool {
	if len(a.LAGs) != len(b.LAGs) {
		return false
	}
	for i := range a.LAGs {
		if a.LAGs[i] != b.LAGs[i] {
			return false
		}
	}
	return true
}

// workspace is the Dijkstra and Yen state one Compute call (or one
// KShortest) reuses across every pair and every spur. Per-node and per-LAG
// marks are generation stamps: a mark is set when it equals gen, so a spur
// starts with every ban and every visit cleared by one increment instead of
// an O(n) reset. A node's dist and prevLAG are meaningful only while its
// reached stamp is current; an unreached node's distance reads +Inf.
type workspace struct {
	t  *topology.Topology
	wt []float64 // w(id) per LAG, evaluated once

	gen     uint32
	reached []uint32 // node: dist/prevLAG set this generation
	done    []uint32 // node: settled this generation
	banNode []uint32 // node: banned this generation
	banLAG  []uint32 // LAG: banned this generation
	dist    []float64
	prevLAG []int32

	q    nodeHeap
	tail []int32 // shortest's LAGs, source to destination

	cand  []int     // the spur candidate being assembled (LAGs)
	costs []float64 // cost of each entry of candidates, in order
}

func newWorkspace(t *topology.Topology, w Weight) *workspace {
	n, nl := t.NumNodes(), t.NumLAGs()
	ws := &workspace{
		t:       t,
		wt:      make([]float64, nl),
		reached: make([]uint32, n),
		done:    make([]uint32, n),
		banNode: make([]uint32, n),
		banLAG:  make([]uint32, nl),
		dist:    make([]float64, n),
		prevLAG: make([]int32, n),
	}
	for id := range ws.wt {
		ws.wt[id] = w(id)
	}
	return ws
}

// next starts a new generation: every ban and every visit mark clears.
func (ws *workspace) next() {
	ws.gen++
	if ws.gen == 0 { // wrapped: stale stamps could read as current
		clear(ws.reached)
		clear(ws.done)
		clear(ws.banNode)
		clear(ws.banLAG)
		ws.gen = 1
	}
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node topology.Node
	dist float64
}

// nodeHeap is a binary min-heap on dist. push and pop sift exactly as
// container/heap's up and down do — the same comparisons, the same swaps —
// so equal distances leave in container/heap's order and every tie-break,
// and with it every tunnel, is the one container/heap gave.
type nodeHeap []pqItem

func (h *nodeHeap) push(node topology.Node, dist float64) {
	q := append(*h, pqItem{node: node, dist: dist})
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	*h = q
}

func (h *nodeHeap) pop() pqItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q[j2].dist < q[j1].dist {
			j = j2 // right child
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	it := q[n]
	*h = q[:n]
	return it
}

// shortest runs Dijkstra from src to dst in the current generation,
// skipping the LAGs and nodes banned in it. On success it leaves the path's
// LAGs, source to destination, in ws.tail and returns true.
func (ws *workspace) shortest(src, dst topology.Node) bool {
	t, g := ws.t, ws.gen
	ws.reached[src], ws.dist[src] = g, 0
	ws.q = ws.q[:0]
	ws.q.push(src, 0)
	for len(ws.q) > 0 {
		u := ws.q.pop().node
		if ws.done[u] == g {
			continue
		}
		ws.done[u] = g
		if u == dst {
			break
		}
		for _, id := range t.Incident(u) {
			if ws.banLAG[id] == g {
				continue
			}
			v := t.LAG(id).Other(u)
			if ws.banNode[v] == g {
				continue
			}
			d, dv := ws.dist[u]+ws.wt[id], math.Inf(1)
			if ws.reached[v] == g {
				dv = ws.dist[v]
			}
			if d < dv-1e-12 {
				ws.reached[v], ws.dist[v], ws.prevLAG[v] = g, d, int32(id)
				ws.q.push(v, d)
			}
		}
	}
	if ws.reached[dst] != g {
		return false
	}
	ws.tail = ws.tail[:0]
	for at := dst; at != src; {
		id := ws.prevLAG[at]
		ws.tail = append(ws.tail, id)
		at = t.LAG(int(id)).Other(at)
	}
	slices.Reverse(ws.tail)
	return true
}

// path materializes a path that starts at src and takes lags.
func (ws *workspace) path(src topology.Node, lags []int) Path {
	p := Path{Nodes: make([]topology.Node, len(lags)+1), LAGs: append([]int(nil), lags...)}
	p.Nodes[0] = src
	for i, id := range lags {
		p.Nodes[i+1] = ws.t.LAG(id).Other(p.Nodes[i])
	}
	return p
}

// cost returns the total weight of a LAG sequence.
func (ws *workspace) cost(lags []int) float64 {
	var c float64
	for _, id := range lags {
		c += ws.wt[id]
	}
	return c
}

// KShortest returns up to k loop-free shortest paths from src to dst in
// nondecreasing weight order (Yen's algorithm).
func KShortest(t *topology.Topology, src, dst topology.Node, k int, w Weight) []Path {
	if w == nil {
		w = HopWeight
	}
	if k <= 0 || src == dst {
		return nil
	}
	return newWorkspace(t, w).kShortest(src, dst, k)
}

// kShortest is KShortest on the workspace. A spur's candidate is assembled
// in ws.cand and becomes a Path only when it is new.
func (ws *workspace) kShortest(src, dst topology.Node, k int) []Path {
	ws.next()
	if !ws.shortest(src, dst) {
		return nil
	}
	ws.cand = ws.cand[:0]
	for _, id := range ws.tail {
		ws.cand = append(ws.cand, int(id))
	}
	result := []Path{ws.path(src, ws.cand)}
	var candidates []Path
	ws.costs = ws.costs[:0]

	for len(result) < k {
		prev := result[len(result)-1]
		// Spur from every node of the previous path except the last.
		for i := 0; i < len(prev.Nodes)-1; i++ {
			spur := prev.Nodes[i]
			rootNodes := prev.Nodes[:i+1]

			ws.next()
			for _, rp := range result {
				if sharesRoot(rp, rootNodes) && i < len(rp.LAGs) {
					ws.banLAG[rp.LAGs[i]] = ws.gen
				}
			}
			for _, nd := range rootNodes[:len(rootNodes)-1] {
				ws.banNode[nd] = ws.gen
			}

			if !ws.shortest(spur, dst) {
				continue
			}
			ws.cand = ws.cand[:0]
			ws.cand = append(ws.cand, prev.LAGs[:i]...)
			for _, id := range ws.tail {
				ws.cand = append(ws.cand, int(id))
			}
			if containsLAGs(candidates, ws.cand) || containsLAGs(result, ws.cand) {
				continue
			}
			candidates = append(candidates, ws.path(src, ws.cand))
			ws.costs = append(ws.costs, ws.cost(ws.cand))
		}
		if len(candidates) == 0 {
			break
		}
		// Take the cheapest candidate.
		best := 0
		for i := 1; i < len(candidates); i++ {
			if ws.costs[i] < ws.costs[best] {
				best = i
			}
		}
		result = append(result, candidates[best])
		candidates = slices.Delete(candidates, best, best+1)
		ws.costs = slices.Delete(ws.costs, best, best+1)
	}
	return result
}

// containsLAGs reports whether some path of ps traverses exactly lags.
func containsLAGs(ps []Path, lags []int) bool {
	for _, p := range ps {
		if slices.Equal(p.LAGs, lags) {
			return true
		}
	}
	return false
}

func sharesRoot(p Path, rootNodes []topology.Node) bool {
	if len(p.Nodes) < len(rootNodes) {
		return false
	}
	for i, nd := range rootNodes {
		if p.Nodes[i] != nd {
			return false
		}
	}
	return true
}

// DemandPaths is the ordered tunnel set of one demand: the first Primary
// entries are primary paths, the remainder an ordered fail-over list of
// backups (§4.2).
type DemandPaths struct {
	Src, Dst topology.Node
	Paths    []Path
	Primary  int
}

// Backups reports the number of backup paths.
func (d *DemandPaths) Backups() int { return len(d.Paths) - d.Primary }

// Compute builds DemandPaths for each (src,dst) pair using k-shortest paths
// with primary+backup paths requested per pair. Pairs with no connecting
// path are rejected.
func Compute(t *topology.Topology, pairs [][2]topology.Node, primary, backup int, w Weight) ([]DemandPaths, error) {
	if primary < 1 {
		return nil, fmt.Errorf("paths: need at least one primary path, got %d", primary)
	}
	if backup < 0 {
		return nil, fmt.Errorf("paths: negative backup count %d", backup)
	}
	if w == nil {
		w = HopWeight
	}
	ws := newWorkspace(t, w)
	out := make([]DemandPaths, 0, len(pairs))
	for _, pr := range pairs {
		var ps []Path
		if pr[0] != pr[1] {
			ps = ws.kShortest(pr[0], pr[1], primary+backup)
		}
		if len(ps) == 0 {
			return nil, fmt.Errorf("paths: no path between %s and %s", t.Name(pr[0]), t.Name(pr[1]))
		}
		np := primary
		if np > len(ps) {
			np = len(ps)
		}
		out = append(out, DemandPaths{Src: pr[0], Dst: pr[1], Paths: ps, Primary: np})
	}
	return out, nil
}
