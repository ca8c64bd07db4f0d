package demand

import (
	"fmt"
	"math"
	"math/rand"

	"raha/internal/topology"
)

// Demand is one source→destination traffic volume.
type Demand struct {
	Src, Dst topology.Node
	Volume   float64
}

// Matrix is an ordered demand list; its order must match the path set the
// analyzer is given.
type Matrix []Demand

// Pairs extracts the (src,dst) pairs in order.
func (m Matrix) Pairs() [][2]topology.Node {
	out := make([][2]topology.Node, len(m))
	for i, d := range m {
		out[i] = [2]topology.Node{d.Src, d.Dst}
	}
	return out
}

// Total is the sum of all volumes.
func (m Matrix) Total() float64 {
	var s float64
	for _, d := range m {
		s += d.Volume
	}
	return s
}

// Scale returns a copy with every volume multiplied by f.
func (m Matrix) Scale(f float64) Matrix {
	out := make(Matrix, len(m))
	for i, d := range m {
		d.Volume *= f
		out[i] = d
	}
	return out
}

// Envelope bounds each demand: Lo[k] ≤ d_k ≤ Hi[k]. Raha searches this box
// for the demands that maximize degradation.
type Envelope struct {
	Pairs  [][2]topology.Node
	Lo, Hi []float64
}

// Fixed pins the envelope to the matrix exactly (the paper's fixed-demand
// mode, where the healthy optimum becomes a constant).
func Fixed(m Matrix) Envelope {
	e := Envelope{Pairs: m.Pairs(), Lo: make([]float64, len(m)), Hi: make([]float64, len(m))}
	for i, d := range m {
		e.Lo[i] = d.Volume
		e.Hi[i] = d.Volume
	}
	return e
}

// UpTo builds the paper's §8.3 envelope: each demand in [0, base·(1+slack)].
// slack is a fraction (0.4 = the paper's "40% slack").
func UpTo(base Matrix, slack float64) Envelope {
	e := Envelope{Pairs: base.Pairs(), Lo: make([]float64, len(base)), Hi: make([]float64, len(base))}
	for i, d := range base {
		e.Hi[i] = d.Volume * (1 + slack)
	}
	return e
}

// Around builds a ±slack envelope centered on base (the paper's Figure 1
// middle scenario uses ±50%).
func Around(base Matrix, slack float64) Envelope {
	e := Envelope{Pairs: base.Pairs(), Lo: make([]float64, len(base)), Hi: make([]float64, len(base))}
	for i, d := range base {
		e.Lo[i] = d.Volume * (1 - slack)
		if e.Lo[i] < 0 {
			e.Lo[i] = 0
		}
		e.Hi[i] = d.Volume * (1 + slack)
	}
	return e
}

// Cap clamps every upper bound to at most c (Figure 8 caps demands at half
// the mean LAG capacity so no single demand bottlenecks the analysis).
func (e Envelope) Cap(c float64) Envelope {
	out := Envelope{Pairs: e.Pairs, Lo: append([]float64(nil), e.Lo...), Hi: append([]float64(nil), e.Hi...)}
	for i := range out.Hi {
		if out.Hi[i] > c {
			out.Hi[i] = c
		}
		if out.Lo[i] > out.Hi[i] {
			out.Lo[i] = out.Hi[i]
		}
	}
	return out
}

// IsFixed reports whether every demand is pinned (Lo == Hi).
func (e Envelope) IsFixed() bool {
	for i := range e.Lo {
		if e.Hi[i]-e.Lo[i] > 1e-12 {
			return false
		}
	}
	return true
}

// Gravity synthesizes a gravity-model matrix over the given pairs: node
// masses are drawn from the seeded RNG and d(s,t) ∝ m_s·m_t, scaled so the
// largest demand equals scale (the paper uses a 100 Gbps scale factor for
// its public MLU numbers).
func Gravity(t *topology.Topology, pairs [][2]topology.Node, scale float64, seed int64) Matrix {
	rng := rand.New(rand.NewSource(seed))
	mass := make([]float64, t.NumNodes())
	for i := range mass {
		mass[i] = 0.2 + rng.Float64()
	}
	m := make(Matrix, len(pairs))
	maxV := 0.0
	for i, p := range pairs {
		v := mass[p[0]] * mass[p[1]]
		m[i] = Demand{Src: p[0], Dst: p[1], Volume: v}
		if v > maxV {
			maxV = v
		}
	}
	if maxV > 0 {
		for i := range m {
			m[i].Volume *= scale / maxV
		}
	}
	return m
}

// TopPairs picks the n node pairs with the highest gravity product — a
// deterministic way to select the demand subset an experiment models.
func TopPairs(t *topology.Topology, n int, seed int64) [][2]topology.Node {
	rng := rand.New(rand.NewSource(seed))
	mass := make([]float64, t.NumNodes())
	for i := range mass {
		mass[i] = 0.2 + rng.Float64()
	}
	type scored struct {
		p [2]topology.Node
		v float64
	}
	all := make([]scored, 0, t.NumNodes()*(t.NumNodes()-1))
	for a := 0; a < t.NumNodes(); a++ {
		for b := 0; b < t.NumNodes(); b++ {
			if a == b {
				continue
			}
			all = append(all, scored{p: [2]topology.Node{topology.Node(a), topology.Node(b)}, v: mass[a] * mass[b]})
		}
	}
	// Partial selection sort: n is small.
	if n > len(all) {
		n = len(all)
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < len(all); j++ {
			if all[j].v > all[best].v {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
	}
	out := make([][2]topology.Node, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].p
	}
	return out
}

// Quantizer maps a demand envelope onto MetaOpt-style pinned demand levels:
// d_k = Lo_k + unit_k·(binary expansion of `bits` bits), with unit chosen so
// the top level reaches Hi_k. This is the linearization device that lets the
// analyzer multiply demands with dual variables (DESIGN.md §2.1).
type Quantizer struct {
	Bits int
	Unit []float64 // per demand
}

// NewQuantizer builds a quantizer for the envelope with the given bit width.
func NewQuantizer(e Envelope, bits int) (*Quantizer, error) {
	if bits < 1 || bits > 20 {
		return nil, fmt.Errorf("demand: quantizer bits must be in [1,20], got %d", bits)
	}
	q := &Quantizer{Bits: bits, Unit: make([]float64, len(e.Lo))}
	levels := float64(int(1)<<uint(bits)) - 1
	for i := range e.Lo {
		q.Unit[i] = (e.Hi[i] - e.Lo[i]) / levels
	}
	return q, nil
}

// Levels returns the number of representable levels per demand.
func (q *Quantizer) Levels() int { return 1 << uint(q.Bits) }

// Round snaps a volume into the quantizer's grid for demand k over the
// envelope e.
func (q *Quantizer) Round(e Envelope, k int, v float64) float64 {
	if q.Unit[k] == 0 {
		return e.Lo[k]
	}
	steps := math.Round((v - e.Lo[k]) / q.Unit[k])
	if steps < 0 {
		steps = 0
	}
	if max := float64(q.Levels() - 1); steps > max {
		steps = max
	}
	return e.Lo[k] + steps*q.Unit[k]
}
