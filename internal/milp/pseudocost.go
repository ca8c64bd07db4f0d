package milp

import (
	"math"
	"sync/atomic"
)

// Branching is reliability-initialized pseudocost branching, the only rule:
// candidates are scored by the per-unit objective degradation their past
// branches caused, and until a variable has pcReliability observations in
// each direction it is treated as unknown and the most fractional unknown
// is branched to gather data.
const (
	// pcReliability is the per-direction observation count below which a
	// variable's pseudocosts are not yet trusted.
	pcReliability = 4

	// pcScoreEps floors each direction's estimated degradation in the
	// product score, so a zero estimate doesn't erase the other direction
	// (Achterberg's product rule).
	pcScoreEps = 1e-6
)

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
// x is integral. scored reports a genuine pseudocost decision (both
// directions reliable), as opposed to the most-fractional fallback — the
// count Stats.PseudocostBranches tracks.
func (s *search) branchVar(x []float64) (v Var, scored bool) {
	best := Var(-1)
	bestScore := 0.0
	fallback := Var(-1)
	fallbackDist := s.p.IntTol
	for _, cand := range s.intVars {
		f := x[cand] - math.Floor(x[cand])
		dist := math.Min(f, 1-f)
		if dist <= s.p.IntTol {
			continue
		}
		cu := atomic.LoadInt64(&s.pc.upCnt[cand])
		cd := atomic.LoadInt64(&s.pc.dnCnt[cand])
		if cu < pcReliability || cd < pcReliability {
			// Unreliable: candidate for the information-gathering fallback.
			if dist > fallbackDist {
				fallback, fallbackDist = cand, dist
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
	// Prefer gathering observations over trusting partial data: any
	// unreliable fractional variable is branched (most fractional first)
	// before the scored choice among the reliable ones.
	if fallback >= 0 {
		return fallback, false
	}
	if best >= 0 {
		return best, true
	}
	return -1, false
}
