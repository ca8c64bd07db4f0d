package topology

import (
	"math"
	"strings"
	"testing"
)

func TestBasicConstruction(t *testing.T) {
	top := New()
	a := top.AddNode("a")
	b := top.AddNode("b")
	if top.AddNode("a") != a {
		t.Fatal("AddNode must be idempotent per name")
	}
	id, err := top.AddLAG(a, b, []Link{{Capacity: 10}, {Capacity: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if top.NumNodes() != 2 || top.NumLAGs() != 1 || top.NumLinks() != 2 {
		t.Fatalf("counts: %d nodes %d lags %d links", top.NumNodes(), top.NumLAGs(), top.NumLinks())
	}
	l := top.LAG(id)
	if l.Capacity() != 30 {
		t.Fatalf("capacity = %g", l.Capacity())
	}
	if l.Other(a) != b || l.Other(b) != a {
		t.Fatal("Other endpoints wrong")
	}
	if top.LAGBetween(a, b) != id || top.LAGBetween(b, a) != id {
		t.Fatal("LAGBetween failed")
	}
	if n, ok := top.NodeByName("b"); !ok || n != b {
		t.Fatal("NodeByName failed")
	}
	if top.Name(a) != "a" {
		t.Fatal("Name failed")
	}
}

func TestAddLAGErrors(t *testing.T) {
	top := New()
	a := top.AddNode("a")
	top.AddNode("b")
	if _, err := top.AddLAG(a, a, []Link{{Capacity: 1}}); err == nil {
		t.Fatal("self-loop must error")
	}
	if _, err := top.AddLAG(a, 1, nil); err == nil {
		t.Fatal("empty LAG must error")
	}
}

func TestConnected(t *testing.T) {
	top := New()
	a := top.AddNode("a")
	b := top.AddNode("b")
	top.AddNode("c")
	top.MustAddLAG(a, b, []Link{{Capacity: 1}})
	if top.Connected() {
		t.Fatal("c is isolated")
	}
	top.MustAddLAG(b, 2, []Link{{Capacity: 1}})
	if !top.Connected() {
		t.Fatal("should be connected now")
	}
}

// TestHops: a path a-b-c-d-e plus an isolated f, searched from both ends
// of the path with the first seed repeated. Each node reads its distance
// to the nearer seed, and f, which no seed reaches, reads 1<<30.
func TestHops(t *testing.T) {
	top := New()
	var n []Node
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		n = append(n, top.AddNode(name))
	}
	for i := 0; i+1 < 5; i++ {
		top.MustAddLAG(n[i], n[i+1], []Link{{Capacity: 1}})
	}
	got := top.Hops([]Node{n[0], n[4], n[0]})
	want := []int{0, 1, 2, 1, 0, 1 << 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("node %s: %d hops, want %d", top.Name(n[i]), got[i], want[i])
		}
	}
}

func TestMeanLAGCapacityAndClone(t *testing.T) {
	top := New()
	a := top.AddNode("a")
	b := top.AddNode("b")
	c := top.AddNode("c")
	top.MustAddLAG(a, b, []Link{{Capacity: 10}})
	top.MustAddLAG(b, c, []Link{{Capacity: 20}, {Capacity: 10}})
	if got := top.MeanLAGCapacity(); got != 20 {
		t.Fatalf("mean = %g, want 20", got)
	}
	cl := top.Clone()
	cl.LAG(0).Links[0].Capacity = 999
	if top.LAG(0).Links[0].Capacity != 10 {
		t.Fatal("Clone is shallow")
	}
}

func TestScenarioLogProb(t *testing.T) {
	top := New()
	a := top.AddNode("a")
	b := top.AddNode("b")
	top.MustAddLAG(a, b, []Link{{Capacity: 1, FailProb: 0.1}, {Capacity: 1, FailProb: 0.2}})
	// Fail link 0 only: log(0.1) + log(0.8).
	got := top.ScenarioLogProb(map[int]uint64{0: 1})
	want := math.Log(0.1) + math.Log(0.8)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("logprob = %g, want %g", got, want)
	}
}

func TestSetLinkFailProb(t *testing.T) {
	top := B4()
	top.SetLinkFailProb(0.25)
	for _, l := range top.LAGs() {
		for _, ln := range l.Links {
			if ln.FailProb != 0.25 {
				t.Fatalf("prob = %g", ln.FailProb)
			}
		}
	}
}

func TestNamedTopologies(t *testing.T) {
	cases := []struct {
		name                 string
		top                  *Topology
		nodes, lags, links   int
		meanCapLo, meanCapHi float64
	}{
		{"B4", B4(), 12, 19, 19, 4000, 6000},
		{"Uninett2010", Uninett2010(), 74, 101, 101, 800, 1200},
		{"Cogentco", Cogentco(), 197, 243, 243, 800, 1200},
		{"AfricaWAN", AfricaWAN(), 76, 334, 382, 600, 1400},
		{"SmallWAN", SmallWAN(), 12, 20, 26, 500, 1600},
		{"Figure1", Figure1(), 4, 5, 5, 0, 100},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.top.NumNodes() != c.nodes {
				t.Fatalf("nodes = %d, want %d", c.top.NumNodes(), c.nodes)
			}
			if c.top.NumLAGs() != c.lags {
				t.Fatalf("lags = %d, want %d", c.top.NumLAGs(), c.lags)
			}
			if c.top.NumLinks() != c.links {
				t.Fatalf("links = %d, want %d", c.top.NumLinks(), c.links)
			}
			if !c.top.Connected() {
				t.Fatal("must be connected")
			}
			if mc := c.top.MeanLAGCapacity(); mc < c.meanCapLo || mc > c.meanCapHi {
				t.Fatalf("mean LAG capacity %g outside [%g,%g]", mc, c.meanCapLo, c.meanCapHi)
			}
			for _, l := range c.top.LAGs() {
				for _, ln := range l.Links {
					if ln.FailProb <= 0 || ln.FailProb >= 1 {
						t.Fatalf("LAG %d has link FailProb %g outside (0,1)", l.ID, ln.FailProb)
					}
				}
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(GenConfig{Nodes: 20, LAGs: 35, Seed: 9, ExtraLinks: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(GenConfig{Nodes: 20, LAGs: 35, Seed: 9, ExtraLinks: 5})
	if a.NumLinks() != b.NumLinks() {
		t.Fatal("generator must be deterministic")
	}
	for i := range a.LAGs() {
		if a.LAG(i).A != b.LAG(i).A || a.LAG(i).B != b.LAG(i).B {
			t.Fatalf("LAG %d differs between identical seeds", i)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(GenConfig{Nodes: 1, LAGs: 0}); err == nil {
		t.Fatal("want error for 1 node")
	}
	if _, err := Generate(GenConfig{Nodes: 5, LAGs: 2}); err == nil {
		t.Fatal("want error for too few LAGs")
	}
	if _, err := Generate(GenConfig{Nodes: 3, LAGs: 99}); err == nil {
		t.Fatal("want error for too many LAGs")
	}
}

const sampleGML = `
# Topology Zoo style file
graph [
  directed 0
  node [
    id 0
    label "Oslo"
    Latitude 59.9
  ]
  node [
    id 1
    label "Bergen"
  ]
  node [
    id 2
    label "Trondheim"
  ]
  edge [
    source 0
    target 1
    LinkSpeedRaw 10000000000.0
  ]
  edge [
    source 1
    target 2
  ]
  edge [
    source 0
    target 1
    LinkSpeedRaw 10000000000.0
  ]
]
`

func TestParseGML(t *testing.T) {
	top, err := ParseGML(sampleGML, 100)
	if err != nil {
		t.Fatal(err)
	}
	if top.NumNodes() != 3 {
		t.Fatalf("nodes = %d", top.NumNodes())
	}
	// Duplicate edge Oslo-Bergen merges into one 2-link LAG.
	if top.NumLAGs() != 2 || top.NumLinks() != 3 {
		t.Fatalf("lags = %d links = %d", top.NumLAGs(), top.NumLinks())
	}
	oslo, _ := top.NodeByName("Oslo")
	bergen, _ := top.NodeByName("Bergen")
	id := top.LAGBetween(oslo, bergen)
	if id < 0 {
		t.Fatal("missing Oslo-Bergen LAG")
	}
	if got := top.LAG(id).Capacity(); got != 20 { // 2 × 10 Gbps
		t.Fatalf("capacity = %g, want 20", got)
	}
	brg := top.LAGBetween(bergen, 2)
	if got := top.LAG(brg).Capacity(); got != 100 {
		t.Fatalf("default capacity = %g, want 100", got)
	}
}

func TestParseGMLErrors(t *testing.T) {
	cases := []string{
		`node [ id 0 ]`,                                      // no graph block
		`graph [ node [ label "x" ] ]`,                       // node without id
		`graph [ edge [ source 0 ] ]`,                        // edge without target
		`graph [ node [ id 0 ] edge [ source 0 target 9 ] ]`, // unknown node
		`graph [ `,      // unbalanced
		"graph [ x @ ]", // bad char
		`graph [ key ]`, // key without value
		`graph [ node [ id 0 ] node [ id 0 label "twin" ] ]`, // duplicate node id
		`graph [ ]`,                            // empty graph
		`graph [ directed 1 ]`,                 // attributes but no nodes
		`graph [ edge [ source 0 target 1 ] ]`, // edges into an empty node set
	}
	for i, src := range cases {
		if _, err := ParseGML(src, 1); err == nil {
			t.Fatalf("case %d: want error", i)
		}
	}
}

// TestParseGMLDuplicateIDMessage pins the duplicate-id failure mode: it must
// be a parse error naming the id, not a silently rewired graph (the old
// behavior kept the second node and re-pointed the first's edges at it).
func TestParseGMLDuplicateIDMessage(t *testing.T) {
	src := `graph [
	  node [ id 0 label "a" ]
	  node [ id 1 label "b" ]
	  node [ id 1 label "b2" ]
	  edge [ source 0 target 1 ]
	]`
	_, err := ParseGML(src, 1)
	if err == nil {
		t.Fatal("duplicate node id must be rejected")
	}
	if !strings.Contains(err.Error(), "duplicate node id 1") {
		t.Fatalf("error should name the duplicate id: %v", err)
	}
}

func TestParseGMLSelfLoopAndDuplicateLabels(t *testing.T) {
	src := `graph [
	  node [ id 0 label "x" ]
	  node [ id 1 label "x" ]
	  edge [ source 0 target 0 ]
	  edge [ source 0 target 1 ]
	]`
	top, err := ParseGML(src, 5)
	if err != nil {
		t.Fatal(err)
	}
	if top.NumNodes() != 2 || top.NumLAGs() != 1 {
		t.Fatalf("%d nodes %d lags", top.NumNodes(), top.NumLAGs())
	}
	if _, ok := top.NodeByName("x#1"); !ok {
		names := []string{top.Name(0), top.Name(1)}
		t.Fatalf("duplicate label not disambiguated: %v", strings.Join(names, ","))
	}
}

func TestVirtualGateway(t *testing.T) {
	top := New()
	a := top.AddNode("a")
	b := top.AddNode("b")
	c := top.AddNode("c")
	top.MustAddLAG(a, b, []Link{{Capacity: 10, FailProb: 0.01}})
	top.MustAddLAG(b, c, []Link{{Capacity: 10, FailProb: 0.01}})
	v, err := top.AddVirtualGateway("continent-in", []Node{a, c}, []float64{5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !top.IsVirtual(v) {
		t.Fatal("virtual node not marked")
	}
	if top.IsVirtual(a) || top.IsVirtual(b) {
		t.Fatal("real nodes must not be virtual")
	}
	if top.NumLAGs() != 4 {
		t.Fatalf("lags = %d", top.NumLAGs())
	}
	// The virtual node reaches b via either gateway.
	if top.LAGBetween(v, a) < 0 || top.LAGBetween(v, c) < 0 {
		t.Fatal("virtual LAGs missing")
	}
	if got := top.LAG(top.LAGBetween(v, c)).Capacity(); got != 7 {
		t.Fatalf("transit capacity = %g", got)
	}
	// Clone preserves virtuality.
	if !top.Clone().IsVirtual(v) {
		t.Fatal("Clone drops virtual marks")
	}
}

func TestVirtualGatewayErrors(t *testing.T) {
	top := New()
	a := top.AddNode("a")
	if _, err := top.AddVirtualGateway("v", nil, nil); err == nil {
		t.Fatal("no gateways must error")
	}
	if _, err := top.AddVirtualGateway("v", []Node{a}, nil); err == nil {
		t.Fatal("shape mismatch must error")
	}
	if _, err := top.AddVirtualGateway("a", []Node{a}, []float64{1}); err == nil {
		t.Fatal("duplicate name must error")
	}
	if _, err := top.AddVirtualGateway("v", []Node{a}, []float64{0}); err == nil {
		t.Fatal("zero transit must error")
	}
}
