package milp

import (
	"math"
	"sync/atomic"
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
// Workers on different nodes update them concurrently, so the counts are
// atomic int64s and the sums are float64 bit patterns updated by CAS —
// plain float adds would tear, and a lock here would serialize every
// branch decision.
type pseudocosts struct {
	upSum, dnSum []uint64 // float64 bits
	upCnt, dnCnt []int64
}

func newPseudocosts(n int) *pseudocosts {
	return &pseudocosts{
		upSum: make([]uint64, n),
		dnSum: make([]uint64, n),
		upCnt: make([]int64, n),
		dnCnt: make([]int64, n),
	}
}

// atomicAddFloat adds d to the float64 stored as bits behind p.
func atomicAddFloat(p *uint64, d float64) {
	for {
		old := atomic.LoadUint64(p)
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if atomic.CompareAndSwapUint64(p, old, nw) {
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
		atomic.AddInt64(&pc.upCnt[v], 1)
	} else {
		atomicAddFloat(&pc.dnSum[v], perUnit)
		atomic.AddInt64(&pc.dnCnt[v], 1)
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
	unknownDist := s.p.IntTol
	for _, cand := range s.intVars {
		f := x[cand] - math.Floor(x[cand])
		dist := math.Min(f, 1-f)
		if dist <= s.p.IntTol {
			continue
		}
		cu := atomic.LoadInt64(&s.pc.upCnt[cand])
		cd := atomic.LoadInt64(&s.pc.dnCnt[cand])
		if cu == 0 || cd == 0 {
			if dist > unknownDist {
				unknown, unknownDist = cand, dist
			}
			continue
		}
		su := math.Float64frombits(atomic.LoadUint64(&s.pc.upSum[cand]))
		sd := math.Float64frombits(atomic.LoadUint64(&s.pc.dnSum[cand]))
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
