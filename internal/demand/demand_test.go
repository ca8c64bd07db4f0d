package demand

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"raha/internal/topology"
)

func sampleMatrix() Matrix {
	return Matrix{
		{Src: 0, Dst: 1, Volume: 10},
		{Src: 0, Dst: 2, Volume: 20},
		{Src: 1, Dst: 2, Volume: 0},
	}
}

func TestMatrixBasics(t *testing.T) {
	m := sampleMatrix()
	if m.Total() != 30 {
		t.Fatalf("total = %g", m.Total())
	}
	s := m.Scale(2)
	if s.Total() != 60 || m.Total() != 30 {
		t.Fatal("Scale must copy")
	}
	p := m.Pairs()
	if len(p) != 3 || p[1] != [2]topology.Node{0, 2} {
		t.Fatalf("pairs = %v", p)
	}
}

func TestEnvelopes(t *testing.T) {
	m := sampleMatrix()
	f := Fixed(m)
	if !f.IsFixed() {
		t.Fatal("Fixed must be fixed")
	}
	u := UpTo(m, 0.5)
	if u.IsFixed() {
		t.Fatal("UpTo must not be fixed")
	}
	if u.Lo[0] != 0 || math.Abs(u.Hi[0]-15) > 1e-12 {
		t.Fatalf("UpTo bounds [%g,%g]", u.Lo[0], u.Hi[0])
	}
	a := Around(m, 0.5)
	if math.Abs(a.Lo[0]-5) > 1e-12 || math.Abs(a.Hi[0]-15) > 1e-12 {
		t.Fatalf("Around bounds [%g,%g]", a.Lo[0], a.Hi[0])
	}
	// Around never goes below zero.
	a2 := Around(m, 2)
	if a2.Lo[0] != 0 {
		t.Fatalf("Around lo = %g", a2.Lo[0])
	}
	c := u.Cap(12)
	if c.Hi[0] != 12 || c.Hi[2] != 0 {
		t.Fatalf("Cap hi = %v", c.Hi)
	}
	if u.Hi[0] != 15 {
		t.Fatal("Cap must copy")
	}
}

func TestCapClampsLo(t *testing.T) {
	m := Matrix{{Src: 0, Dst: 1, Volume: 10}}
	e := Fixed(m).Cap(4)
	if e.Lo[0] != 4 || e.Hi[0] != 4 {
		t.Fatalf("capped fixed envelope [%g,%g]", e.Lo[0], e.Hi[0])
	}
}

func TestGravity(t *testing.T) {
	top := topology.SmallWAN()
	pairs := [][2]topology.Node{{0, 1}, {2, 3}, {4, 5}}
	g := Gravity(top, pairs, 100, 1)
	if len(g) != 3 {
		t.Fatalf("len = %d", len(g))
	}
	maxV := 0.0
	for _, d := range g {
		if d.Volume <= 0 {
			t.Fatal("gravity volumes must be positive")
		}
		if d.Volume > maxV {
			maxV = d.Volume
		}
	}
	if math.Abs(maxV-100) > 1e-9 {
		t.Fatalf("max volume %g, want scale 100", maxV)
	}
	g2 := Gravity(top, pairs, 100, 1)
	for i := range g {
		if g[i] != g2[i] {
			t.Fatal("gravity must be deterministic in seed")
		}
	}
}

func TestTopPairs(t *testing.T) {
	top := topology.SmallWAN()
	p := TopPairs(top, 5, 3)
	if len(p) != 5 {
		t.Fatalf("len = %d", len(p))
	}
	seen := map[[2]topology.Node]bool{}
	for _, pr := range p {
		if pr[0] == pr[1] {
			t.Fatal("self pair")
		}
		if seen[pr] {
			t.Fatal("duplicate pair")
		}
		seen[pr] = true
	}
	// Requesting more pairs than exist truncates gracefully.
	all := TopPairs(top, 10_000, 3)
	if len(all) != top.NumNodes()*(top.NumNodes()-1) {
		t.Fatalf("len = %d", len(all))
	}
}

func TestQuantizer(t *testing.T) {
	m := Matrix{{Src: 0, Dst: 1, Volume: 10}}
	e := UpTo(m, 0) // [0, 10]
	q, err := NewQuantizer(e, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q.Levels() != 4 {
		t.Fatalf("levels = %d", q.Levels())
	}
	// Unit = 10/3; grid {0, 10/3, 20/3, 10}.
	cases := []struct{ in, want float64 }{
		{0, 0},
		{1, 0},
		{2, 10.0 / 3},
		{4, 10.0 / 3},
		{6, 20.0 / 3},
		{9, 10},
		{15, 10},
		{-3, 0},
	}
	for _, c := range cases {
		if got := q.Round(e, 0, c.in); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("Round(%g) = %g, want %g", c.in, got, c.want)
		}
	}
	// Degenerate envelope (fixed demand): Round returns the fixed value.
	ef := Fixed(m)
	qf, _ := NewQuantizer(ef, 3)
	if got := qf.Round(ef, 0, 99); got != 10 {
		t.Fatalf("fixed Round = %g", got)
	}
	if _, err := NewQuantizer(e, 0); err == nil {
		t.Fatal("bits=0 must error")
	}
	if _, err := NewQuantizer(e, 21); err == nil {
		t.Fatal("bits=21 must error")
	}
}

// TestTopPairsGolden pins TopPairs' selection — which pairs, in which order —
// on B4 and on a 40-node synthetic topology, for a short list, the
// AfricaWAN-sized 150 and a request beyond all n·(n−1) pairs. The values are
// those of the implementation that grew its candidate slice by append.
func TestTopPairsGolden(t *testing.T) {
	got := TopPairs(topology.B4(), 12, 4)
	want := [][2]topology.Node{{3, 8}, {8, 3}, {3, 6}, {6, 3}, {6, 8}, {8, 6}, {3, 11}, {11, 3}, {8, 11}, {11, 8}, {3, 9}, {9, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("B4: TopPairs = %v, want %v", got, want)
	}

	syn, err := topology.Generate(topology.GenConfig{Nodes: 40, LAGs: 60, ExtraLinks: 10, Seed: 7, MeanLinkCapacity: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		n, wantLen int
		hash       uint64
		last       [2]topology.Node
	}{
		{6, 6, 0x9f115e6da2957585, [2]topology.Node{30, 20}},
		{150, 150, 0xa1b07019159b1bad, [2]topology.Node{34, 13}},
		{5000, 1560, 0x1fc109135b32ff27, [2]topology.Node{8, 23}},
	} {
		ps := TopPairs(syn, tc.n, 7)
		h := fnv.New64a()
		for _, p := range ps {
			fmt.Fprintf(h, "%d>%d,", p[0], p[1])
		}
		if len(ps) != tc.wantLen || h.Sum64() != tc.hash || ps[len(ps)-1] != tc.last {
			t.Errorf("synthetic n=%d: %d pairs, hash %#x, last %v; want %d, %#x, %v",
				tc.n, len(ps), h.Sum64(), ps[len(ps)-1], tc.wantLen, tc.hash, tc.last)
		}
	}
}
