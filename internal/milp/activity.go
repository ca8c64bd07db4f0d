package milp

import "math"

// activity accumulates the interval a row's left-hand side ranges over
// inside the variable bound box, keeping infinite contributions counted
// separately from the finite sum. The split is what makes the accumulator
// serve presolve's residual reasoning: with the ±Inf contributions counted
// rather than folded into the sum, a single term's contribution can be
// subtracted back out to get the activity of "the rest of the row" — finite
// whenever at most that term was the infinite one. It is the model's one
// interval arithmetic: ExprBounds, presolve and domain propagation all use
// it.
type activity struct {
	SumLo, SumHi float64 // finite part of the activity interval
	InfLo, InfHi int     // count of -Inf lower / +Inf upper contributions
	NaN          bool    // a NaN coefficient or bound poisoned the row
}

// termBounds returns the interval of c·x for x ∈ [lo, hi], with the
// convention that a zero coefficient contributes exactly [0, 0] — never the
// IEEE 0·±Inf = NaN, which would otherwise poison every Big-M derived from
// the interval.
func termBounds(c, lo, hi float64) (float64, float64) {
	if c == 0 {
		return 0, 0
	}
	a, b := c*lo, c*hi
	if a > b {
		a, b = b, a
	}
	return a, b
}

// Add accumulates the contribution of c·x for x ∈ [lo, hi], with the
// termBounds convention that a zero coefficient contributes exactly [0, 0].
func (a *activity) Add(c, lo, hi float64) {
	tl, th := termBounds(c, lo, hi)
	if math.IsNaN(tl) || math.IsNaN(th) {
		a.NaN = true
		return
	}
	if math.IsInf(tl, -1) {
		a.InfLo++
	} else {
		a.SumLo += tl
	}
	if math.IsInf(th, 1) {
		a.InfHi++
	} else {
		a.SumHi += th
	}
}

// Lo returns the activity's lower bound (-Inf when any contribution was).
func (a *activity) Lo() float64 {
	if a.InfLo > 0 {
		return math.Inf(-1)
	}
	return a.SumLo
}

// Hi returns the activity's upper bound (+Inf when any contribution was).
func (a *activity) Hi() float64 {
	if a.InfHi > 0 {
		return math.Inf(1)
	}
	return a.SumHi
}

// ResidualLo returns the activity lower bound with one term's contribution
// (whose termBounds lower bound is termLo) removed. ok is false when the
// residual is -Inf — some other term contributed an infinite lower bound —
// in which case no finite bound can be derived from this side of the row.
func (a *activity) ResidualLo(termLo float64) (res float64, ok bool) {
	if math.IsInf(termLo, -1) {
		if a.InfLo == 1 {
			return a.SumLo, true
		}
		return 0, false
	}
	if a.InfLo > 0 {
		return 0, false
	}
	return a.SumLo - termLo, true
}

// ResidualHi is ResidualLo for the upper side: the activity upper bound with
// one term's contribution (termBounds upper bound termHi) removed.
func (a *activity) ResidualHi(termHi float64) (res float64, ok bool) {
	if math.IsInf(termHi, 1) {
		if a.InfHi == 1 {
			return a.SumHi, true
		}
		return 0, false
	}
	if a.InfHi > 0 {
		return 0, false
	}
	return a.SumHi - termHi, true
}
