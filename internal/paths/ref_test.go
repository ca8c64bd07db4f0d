package paths

// The referee for the tunnels: Dijkstra and Yen's algorithm as they stood
// before the workspace, with per-call arrays, map bans and container/heap.
// The equivalence tests (equiv_test.go) hold Compute and KShortest to these
// path for path, so the typed heap and the stamped marks can only ever be a
// faster way to the same tunnels.

import (
	"container/heap"
	"fmt"
	"math"

	"raha/internal/topology"
)

type refPQ []pqItem

func (q refPQ) Len() int           { return len(q) }
func (q refPQ) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q refPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *refPQ) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// refShortest runs Dijkstra from src to dst, skipping banned LAGs and nodes.
func refShortest(t *topology.Topology, src, dst topology.Node, w Weight, bannedLAG map[int]bool, bannedNode map[topology.Node]bool) (Path, bool) {
	n := t.NumNodes()
	dist := make([]float64, n)
	prevLAG := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevLAG[i] = -1
	}
	dist[src] = 0
	q := refPQ{{node: src}}
	for q.Len() > 0 {
		it := heap.Pop(&q).(pqItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			break
		}
		for _, id := range t.Incident(u) {
			if bannedLAG[id] {
				continue
			}
			v := t.LAG(id).Other(u)
			if bannedNode[v] {
				continue
			}
			d := dist[u] + w(id)
			if d < dist[v]-1e-12 {
				dist[v] = d
				prevLAG[v] = id
				heap.Push(&q, pqItem{node: v, dist: d})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return Path{}, false
	}
	var revLAGs []int
	var revNodes []topology.Node
	for at := dst; at != src; {
		id := prevLAG[at]
		revLAGs = append(revLAGs, id)
		revNodes = append(revNodes, at)
		at = t.LAG(id).Other(at)
	}
	p := Path{Nodes: make([]topology.Node, 0, len(revNodes)+1), LAGs: make([]int, 0, len(revLAGs))}
	p.Nodes = append(p.Nodes, src)
	for i := len(revNodes) - 1; i >= 0; i-- {
		p.Nodes = append(p.Nodes, revNodes[i])
		p.LAGs = append(p.LAGs, revLAGs[i])
	}
	return p, true
}

func refCost(p Path, w Weight) float64 {
	var c float64
	for _, id := range p.LAGs {
		c += w(id)
	}
	return c
}

// refKShortest is Yen's algorithm over refShortest.
func refKShortest(t *topology.Topology, src, dst topology.Node, k int, w Weight) []Path {
	if w == nil {
		w = HopWeight
	}
	if k <= 0 || src == dst {
		return nil
	}
	first, ok := refShortest(t, src, dst, w, nil, nil)
	if !ok {
		return nil
	}
	result := []Path{first}
	var candidates []Path

	for len(result) < k {
		prev := result[len(result)-1]
		for i := 0; i < len(prev.Nodes)-1; i++ {
			spur := prev.Nodes[i]
			rootNodes := prev.Nodes[:i+1]
			rootLAGs := prev.LAGs[:i]

			bannedLAG := make(map[int]bool)
			for _, rp := range result {
				if sharesRoot(rp, rootNodes) && i < len(rp.LAGs) {
					bannedLAG[rp.LAGs[i]] = true
				}
			}
			bannedNode := make(map[topology.Node]bool)
			for _, nd := range rootNodes[:len(rootNodes)-1] {
				bannedNode[nd] = true
			}

			tail, ok := refShortest(t, spur, dst, w, bannedLAG, bannedNode)
			if !ok {
				continue
			}
			cand := Path{
				Nodes: append(append([]topology.Node(nil), rootNodes...), tail.Nodes[1:]...),
				LAGs:  append(append([]int(nil), rootLAGs...), tail.LAGs...),
			}
			dup := false
			for _, c := range candidates {
				if Equal(c, cand) {
					dup = true
					break
				}
			}
			for _, rp := range result {
				if Equal(rp, cand) {
					dup = true
					break
				}
			}
			if !dup {
				candidates = append(candidates, cand)
			}
		}
		if len(candidates) == 0 {
			break
		}
		best := 0
		bestCost := refCost(candidates[0], w)
		for i := 1; i < len(candidates); i++ {
			if c := refCost(candidates[i], w); c < bestCost {
				best, bestCost = i, c
			}
		}
		result = append(result, candidates[best])
		candidates = append(candidates[:best], candidates[best+1:]...)
	}
	return result
}

// refCompute is Compute over refKShortest.
func refCompute(t *topology.Topology, pairs [][2]topology.Node, primary, backup int, w Weight) ([]DemandPaths, error) {
	if primary < 1 {
		return nil, fmt.Errorf("paths: need at least one primary path, got %d", primary)
	}
	if backup < 0 {
		return nil, fmt.Errorf("paths: negative backup count %d", backup)
	}
	out := make([]DemandPaths, 0, len(pairs))
	for _, pr := range pairs {
		ps := refKShortest(t, pr[0], pr[1], primary+backup, w)
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
