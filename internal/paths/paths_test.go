package paths

import (
	"math/rand"
	"testing"

	"raha/internal/topology"
)

// diamond builds A-B, A-C, B-D, C-D, B-C.
func diamond() (*topology.Topology, []topology.Node) {
	t := topology.New()
	a := t.AddNode("A")
	b := t.AddNode("B")
	c := t.AddNode("C")
	d := t.AddNode("D")
	l := func(cap float64) []topology.Link { return []topology.Link{{Capacity: cap}} }
	t.MustAddLAG(a, b, l(10)) // 0
	t.MustAddLAG(a, c, l(10)) // 1
	t.MustAddLAG(b, d, l(10)) // 2
	t.MustAddLAG(c, d, l(10)) // 3
	t.MustAddLAG(b, c, l(10)) // 4
	return t, []topology.Node{a, b, c, d}
}

func TestShortestHop(t *testing.T) {
	top, n := diamond()
	ps := KShortest(top, n[0], n[3], 1, nil)
	if len(ps) != 1 {
		t.Fatalf("got %d paths", len(ps))
	}
	if len(ps[0].LAGs) != 2 {
		t.Fatalf("shortest A-D must be 2 hops, got %d", len(ps[0].LAGs))
	}
}

func TestKShortestOrderAndSimplicity(t *testing.T) {
	top, n := diamond()
	ps := KShortest(top, n[0], n[3], 10, nil)
	if len(ps) < 3 {
		t.Fatalf("expected ≥3 paths, got %d", len(ps))
	}
	prev := 0
	for i, p := range ps {
		if len(p.LAGs) < prev {
			t.Fatalf("path %d shorter than predecessor", i)
		}
		prev = len(p.LAGs)
		seen := map[topology.Node]bool{}
		for _, nd := range p.Nodes {
			if seen[nd] {
				t.Fatalf("path %d revisits node %v", i, nd)
			}
			seen[nd] = true
		}
		if p.Nodes[0] != n[0] || p.Nodes[len(p.Nodes)-1] != n[3] {
			t.Fatalf("path %d has wrong endpoints", i)
		}
		for j := i + 1; j < len(ps); j++ {
			if Equal(ps[i], ps[j]) {
				t.Fatalf("paths %d and %d identical", i, j)
			}
		}
	}
}

func TestKShortestWeighted(t *testing.T) {
	top, n := diamond()
	// Penalize LAG 2 (B-D) heavily: shortest A→D should avoid it.
	w := func(id int) float64 {
		if id == 2 {
			return 100
		}
		return 1
	}
	ps := KShortest(top, n[0], n[3], 1, w)
	for _, id := range ps[0].LAGs {
		if id == 2 {
			t.Fatal("weighted shortest path used the penalized LAG")
		}
	}
}

func TestNoPath(t *testing.T) {
	top := topology.New()
	a := top.AddNode("a")
	b := top.AddNode("b")
	top.AddNode("island")
	top.MustAddLAG(a, b, []topology.Link{{Capacity: 1}})
	if ps := KShortest(top, a, 2, 3, nil); ps != nil {
		t.Fatalf("expected no paths, got %d", len(ps))
	}
	if ps := KShortest(top, a, a, 3, nil); ps != nil {
		t.Fatal("src == dst must yield nil")
	}
	if ps := KShortest(top, a, b, 0, nil); ps != nil {
		t.Fatal("k=0 must yield nil")
	}
}

func TestComputeSplitsPrimaryBackup(t *testing.T) {
	top, n := diamond()
	dps, err := Compute(top, [][2]topology.Node{{n[0], n[3]}, {n[1], n[2]}}, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dps) != 2 {
		t.Fatalf("got %d demand path sets", len(dps))
	}
	d := dps[0]
	if d.Primary != 2 || d.Backups() < 1 {
		t.Fatalf("primary=%d backups=%d", d.Primary, d.Backups())
	}
	if d.Src != n[0] || d.Dst != n[3] {
		t.Fatal("wrong endpoints")
	}
}

func TestComputeFewPathsAvailable(t *testing.T) {
	top := topology.New()
	a := top.AddNode("a")
	b := top.AddNode("b")
	top.MustAddLAG(a, b, []topology.Link{{Capacity: 1}})
	dps, err := Compute(top, [][2]topology.Node{{a, b}}, 4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dps[0].Paths) != 1 || dps[0].Primary != 1 {
		t.Fatalf("paths=%d primary=%d", len(dps[0].Paths), dps[0].Primary)
	}
}

func TestComputeErrors(t *testing.T) {
	top, n := diamond()
	if _, err := Compute(top, nil, 0, 1, nil); err == nil {
		t.Fatal("primary=0 must error")
	}
	if _, err := Compute(top, nil, 1, -1, nil); err == nil {
		t.Fatal("negative backups must error")
	}
	island := top.AddNode("island")
	if _, err := Compute(top, [][2]topology.Node{{n[0], island}}, 1, 0, nil); err == nil {
		t.Fatal("unreachable pair must error")
	}
}

// TestKShortestPropertyRandom checks on random graphs that (1) the first
// path matches Dijkstra, (2) costs are nondecreasing, (3) all paths are
// simple and distinct.
func TestKShortestPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		nn := 6 + rng.Intn(8)
		ne := nn + rng.Intn(nn)
		top, err := topology.Generate(topology.GenConfig{Nodes: nn, LAGs: min(ne, nn*(nn-1)/2), Seed: rng.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		src := topology.Node(rng.Intn(nn))
		dst := topology.Node(rng.Intn(nn))
		if src == dst {
			continue
		}
		ps := KShortest(top, src, dst, 5, nil)
		if len(ps) == 0 {
			t.Fatal("generated topologies are connected; a path must exist")
		}
		sp, _ := refShortest(top, src, dst, HopWeight, nil, nil)
		if len(ps[0].LAGs) != len(sp.LAGs) {
			t.Fatalf("trial %d: first KSP path length %d != Dijkstra %d", trial, len(ps[0].LAGs), len(sp.LAGs))
		}
		for i := 1; i < len(ps); i++ {
			if len(ps[i].LAGs) < len(ps[i-1].LAGs) {
				t.Fatalf("trial %d: costs not monotone", trial)
			}
			for j := 0; j < i; j++ {
				if Equal(ps[i], ps[j]) {
					t.Fatalf("trial %d: duplicate path", trial)
				}
			}
		}
		for _, p := range ps {
			// LAG sequence must be consistent with the node sequence.
			if len(p.LAGs) != len(p.Nodes)-1 {
				t.Fatalf("trial %d: malformed path", trial)
			}
			for h, id := range p.LAGs {
				l := top.LAG(id)
				u, v := p.Nodes[h], p.Nodes[h+1]
				if !((l.A == u && l.B == v) || (l.A == v && l.B == u)) {
					t.Fatalf("trial %d: LAG %d does not connect hop %d", trial, id, h)
				}
			}
		}
	}
}
