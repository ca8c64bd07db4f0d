package milp

import (
	"math"
	"sync/atomic"

	"raha/internal/tol"
)

// Branching is pseudocost branching, the only rule: candidates are scored by
// the per-unit objective degradation their past branches caused, trusted
// from the first observation in each direction. A candidate with no
// observation in some direction is unknown, and the most fractional unknown
// is branched first to gather data — reliability-initialized pseudocost
// branching (Achterberg, Koch & Martin 2005) with the threshold at one. A
// higher threshold left most decisions to the most-fractional choice and
// grew the trees (DESIGN.md §2.9). The top of a tree is still branched
// while the table is nearly empty; the restart (scheduler.go) searches it
// again once the table has been filled.

// pcScoreEps floors each direction's estimated degradation in the product
// score, so a zero estimate doesn't erase the other direction (Achterberg's
// product rule).
const pcScoreEps = 1e-6

// pseudocosts holds the per-variable branching statistics: the summed
// per-unit objective degradation and observation count for each direction.
// Workers on different nodes update them concurrently, so each element is a
// typed atomic (no plain access compiles): the counts are atomic.Int64s and
// the sums float64 bit patterns updated by CAS — plain float adds would
// tear, and a lock here would serialize every branch decision.
type pseudocosts struct {
	upSum, dnSum []atomic.Uint64 // float64 bits
	upCnt, dnCnt []atomic.Int64
}

func newPseudocosts(n int) *pseudocosts {
	return &pseudocosts{
		upSum: make([]atomic.Uint64, n),
		dnSum: make([]atomic.Uint64, n),
		upCnt: make([]atomic.Int64, n),
		dnCnt: make([]atomic.Int64, n),
	}
}

// atomicAddFloat adds d to the float64 stored as bits in p.
func atomicAddFloat(p *atomic.Uint64, d float64) {
	for {
		old := p.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if p.CompareAndSwap(old, nw) {
			return
		}
	}
}

// observe records one LP-verified branch outcome: branching v in the given
// direction degraded the relaxation objective by perUnit per unit of
// fractional distance moved.
func (pc *pseudocosts) observe(v Var, up bool, perUnit float64) {
	if math.IsNaN(perUnit) || math.IsInf(perUnit, 0) {
		return
	}
	if up {
		atomicAddFloat(&pc.upSum[v], perUnit)
		pc.upCnt[v].Add(1)
	} else {
		atomicAddFloat(&pc.dnSum[v], perUnit)
		pc.dnCnt[v].Add(1)
	}
}

// branchVar picks the branching variable for the point x, returning -1 when
// x is integral. A genuine pseudocost decision (both directions observed),
// as opposed to the most-fractional choice among unobserved candidates, is
// counted in st.PseudocostBranches.
func (s *search) branchVar(x []float64, st *Stats) Var {
	best := Var(-1)
	bestScore := 0.0
	unknown := Var(-1)
	unknownDist := tol.Int
	for _, cand := range s.intVars {
		f := x[cand] - math.Floor(x[cand])
		dist := math.Min(f, 1-f)
		if dist <= tol.Int {
			continue
		}
		cu := s.pc.upCnt[cand].Load()
		cd := s.pc.dnCnt[cand].Load()
		if cu == 0 || cd == 0 {
			if dist > unknownDist {
				unknown, unknownDist = cand, dist
			}
			continue
		}
		su := math.Float64frombits(s.pc.upSum[cand].Load())
		sd := math.Float64frombits(s.pc.dnSum[cand].Load())
		up := su / float64(cu) * (1 - f)
		dn := sd / float64(cd) * f
		score := math.Max(up, pcScoreEps) * math.Max(dn, pcScoreEps)
		if best < 0 || score > bestScore {
			best, bestScore = cand, score
		}
	}
	// Gather before trusting: a fractional variable missing an observation
	// in either direction is branched (most fractional first) before the
	// scored choice among the observed ones.
	if unknown >= 0 {
		return unknown
	}
	if best >= 0 {
		st.PseudocostBranches++
	}
	return best
}
