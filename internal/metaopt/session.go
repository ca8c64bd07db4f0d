package metaopt

import (
	"context"
	"math"
	"time"

	"raha/internal/demand"
	"raha/internal/failures"
	"raha/internal/milp"
	"raha/internal/obs"
)

// Sessions answers a stream of analysis questions — a fleet sweep's cells,
// one topology at a time — through one session per question shape: the
// questions that differ only in their failure budget, the probability
// threshold and the failure count k, with the same budget rows. A session
// builds its model once, and each question edits the budget's two
// right-hand sides, presolves, and searches. Between the questions that
// differ only in their budget it holds the one reuse policy there is
// (DESIGN.md §2.10):
//
//   - a question a looser one of the same budget already proved takes that
//     answer;
//   - a question whose model presolves to the Same reduction as a proved
//     question's takes that answer's point too, verified anew, with no
//     search (the identity rule);
//   - any other question starts from its looser questions' least dual bound
//     and their most degrading scenario its own budget admits.
//
// Questions are best asked loosest first. A Sessions is not safe for
// concurrent use.
type Sessions struct {
	list    []*session
	records []record
}

// Reuse reports where a Sessions answer came from: From names the asker of
// the earlier question whose proof answered it ("" when the question's own
// search or budget bound did), and Identical tells the identity rule from a
// looser question of the same budget.
type Reuse struct {
	From      string
	Identical bool
}

// record is one question a Sessions answered.
type record struct {
	asker string
	q     Config
	res   *Result
	proof *proof // nil unless a search proved res
}

// proof is what a search that proved its answer (Optimal or Infeasible)
// leaves for the identity rule: the presolved model it searched and the
// optimum it found, in the model's variables (nil when infeasible).
type proof struct {
	pre *milp.Presolved
	x   []float64
}

// Analyze answers q as AnalyzeContext would, through the session of q's
// shape, and names asker as the question's origin for later reuse. A panic
// below drops that session, so the next question of its shape builds
// afresh rather than trust a model the panic interrupted mid-edit.
func (ss *Sessions) Analyze(ctx context.Context, q Config, asker string) (*Result, Reuse, error) {
	f, err := q.validate()
	if err != nil {
		return nil, Reuse{}, err
	}
	var s *session
	for _, c := range ss.list {
		if c.fits(&q) {
			s = c
			break
		}
	}
	if s == nil {
		s = newSession(&q, f)
		ss.list = append(ss.list, s)
	}
	done := false
	defer func() {
		if !done {
			ss.drop(s)
		}
	}()
	res, reuse, err := ss.ask(ctx, s, q, asker)
	done = true
	return res, reuse, err
}

// Len reports how many question shapes ss holds a session for.
func (ss *Sessions) Len() int { return len(ss.list) }

func (ss *Sessions) drop(s *session) {
	for i, c := range ss.list {
		if c == s {
			ss.list = append(ss.list[:i], ss.list[i+1:]...)
			return
		}
	}
}

// ask answers q, a question of s's shape, from the records when one of them
// settles it, and runs s's analysis otherwise, seeded by the records of
// looser questions: the least finite dual bound among them becomes the
// solve's Solver.Bound, and the most degrading of their scenarios that q's
// own budget admits becomes its warm start. Records of questions that have
// another count-row shape count too: k = 0 is looser than every k.
func (ss *Sessions) ask(ctx context.Context, s *session, q Config, asker string) (*Result, Reuse, error) {
	bound := math.Inf(1)
	var seeds []*Result
	for i := range ss.records {
		r := &ss.records[i]
		if !sameShape(&r.q, &q) || !looser(&r.q, &q) {
			continue
		}
		if sameBudget(&r.q, &q) && proved(r.res) {
			return r.res, Reuse{From: r.asker}, nil
		}
		if b := r.res.Bound; b < bound && !math.IsInf(b, -1) { // NaN fails the comparison
			bound = b
		}
		if r.res.Scenario != nil {
			seeds = append(seeds, r.res)
		}
	}
	if !math.IsInf(bound, 1) {
		q.Solver.Bound = &bound
	}
	if len(seeds) > 0 {
		// A budget that fails to build fails the analysis below too.
		if budget, err := s.failureBudget(&q); err == nil {
			var warm *Result
			for _, r := range seeds {
				if (warm == nil || r.Degradation > warm.Degradation) && budget.Admits(r.Scenario) {
					warm = r
				}
			}
			if warm != nil {
				q.WarmStart = warm
			}
		}
	}
	res, pf, from, err := s.analyze(ctx, q, ss.records)
	if err != nil {
		return nil, Reuse{}, err
	}
	ss.records = append(ss.records, record{asker: asker, q: q, res: res, proof: pf})
	return res, Reuse{From: from, Identical: from != ""}, nil
}

// session is one question shape's analysis state: the model, built once at
// the first question that needs one, and the failure budget, whose weights
// and coefficients the shape fixes.
type session struct {
	shape Config      // the question that opened the session; its budget is the first question's
	f     formulation // the objective's, before any question's budget

	// budget is the first question's failure budget; failureBudget moves its
	// limits to each later question's. nil until a question needs it.
	budget *failures.Budget
	// budgetModel is the lost-capacity knapsack over budget's shape, nil
	// until the first budget bound (boundTotalFlow).
	budgetModel *failures.BoundModel

	bm *model // nil until a question needs the model
	// knapsack is the per-node bound over bm's link binaries with the first
	// budget handed to it; a question's copy takes its own limits
	// (knapsackFor).
	knapsack *milp.Knapsack
	// hints are the fixed-demand shapes of a variable-demand question's
	// hint analyses, one per fixedDemandHints level, nil until first asked.
	hints []*session
}

func newSession(q *Config, f formulation) *session {
	return &session{shape: *q, f: f}
}

// fits reports whether q has the session's shape: the same question up to
// the failure budget, with a probability row and a count row exactly when
// the session's first question had them. k = 0 changes more than the count
// row: only then are the unused links more likely down than up assumed
// failed, which moves the probability row's right-hand side by a different
// constant (assumeUnusedWorst).
func (s *session) fits(q *Config) bool {
	return sameShape(&s.shape, q) &&
		(s.shape.ProbThreshold > 0) == (q.ProbThreshold > 0) &&
		(s.shape.MaxFailures > 0) == (q.MaxFailures > 0)
}

// analyze is AnalyzeContext on the session's model: the budget bound, then
// the model's budget rows edited to cfg's, presolve, and — unless the
// identity rule answers from known — the hint solves, the search and the
// verification. pf and from are solve's.
func (s *session) analyze(ctx context.Context, cfg Config, known []record) (res *Result, pf *proof, from string, err error) {
	f := s.f
	start := time.Now()
	if tl := cfg.Solver.TimeLimit; tl > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, tl)
		defer cancel()
	}
	if tr := cfg.Solver.Tracer; tr != nil {
		tr.Emit("metaopt", "analysis_start", obs.F{
			"objective": cfg.Objective.String(),
			"mode":      cfg.Mode.String(),
			"demands":   len(cfg.Demands),
			"lags":      cfg.Topo.NumLAGs(),
			"fixed":     cfg.Envelope.IsFixed(),
		})
	}
	if f.bound != nil {
		res, err = f.bound(ctx, s, &cfg, &f)
	}
	if res == nil && err == nil {
		res, pf, from, err = s.solve(ctx, &cfg, f, nil, known)
	}
	if err != nil {
		return nil, nil, "", err
	}
	res.Runtime = time.Since(start)
	if tr := cfg.Solver.Tracer; tr != nil {
		ev := obs.F{
			"status":    res.Status.String(),
			"nodes":     res.Nodes,
			"runtime_s": res.Runtime.Seconds(),
			"hint_s":    res.HintRuntime.Seconds(),
			"solve_s":   res.SolveRuntime.Seconds(),
			"verify_s":  res.VerifyRuntime.Seconds(),
		}
		if res.Scenario != nil {
			ev["degradation"] = res.Degradation
		}
		if res.ClosedByBound {
			ev["closed_by_bound"] = true
		}
		tr.Emit("metaopt", "analysis_end", ev)
	}
	return res, pf, from, nil
}

// solve runs the shared tail of every analysis on the session's model:
// its budget rows set to cfg's (lim: cfg's failure budget; nil computes it),
// presolve, the identity rule against the proofs in known, warm-start
// hints, the MILP solve, solution extraction, and LP verification. The time
// split (hints vs. exact solve vs. verification) lands in the Result. pf is
// the proof of a proved result, for the records; from names the asker of
// the record the identity rule answered from.
func (s *session) solve(ctx context.Context, cfg *Config, f formulation, lim *failures.Budget, known []record) (res *Result, pf *proof, from string, err error) {
	if s.bm == nil {
		if s.bm, err = build(cfg, f); err != nil {
			return nil, nil, "", err
		}
	}
	bm := s.bm
	if lim == nil && (cfg.ProbThreshold > 0 || cfg.MaxFailures > 0) {
		if lim, err = s.failureBudget(cfg); err != nil {
			return nil, nil, "", err
		}
	}
	if bm.probRow >= 0 {
		bm.m.SetRHS(bm.probRow, lim.RHS)
	}
	if bm.countRow >= 0 {
		bm.m.SetRHS(bm.countRow, float64(lim.K))
	}
	pre := bm.m.Presolve()
	for i := range known {
		if r := &known[i]; r.proof != nil && sameShape(&r.q, cfg) && r.proof.pre.Same(pre) {
			res, err := s.identical(cfg, f, r.res, r.proof)
			return res, r.proof, r.asker, err
		}
	}

	params := cfg.Solver
	if f.budget != nil {
		params.Knapsack = s.knapsackFor(f.budget)
	}
	var hintDur time.Duration
	if cfg.Mode == Gap {
		if !cfg.Envelope.IsFixed() {
			hintStart := time.Now()
			params.Hints = append(params.Hints, s.fixedDemandHints(ctx, cfg, f, lim)...)
			hintDur = time.Since(hintStart)
		}
		if h := buildWarmStartHint(bm.m, cfg, bm.enc, bm.dv); h != nil {
			params.Hints = append(params.Hints, h)
		}
	}
	mres, err := pre.SolveContext(ctx, params)
	if err != nil {
		return nil, nil, "", err
	}
	// The knapsack closed the solve if the solve ran under its bound, not a
	// tighter one of the caller's (see boundTotalFlow), and an incumbent
	// reaching that bound drained the tree.
	closed := f.budgetBound != nil && params.Bound == f.budgetBound &&
		mres.Status == milp.Optimal && mres.Stats.BoundPrunes > 0
	res = &Result{
		Status:        mres.Status,
		Nodes:         mres.Nodes,
		Bound:         mres.Bound,
		Gap:           mres.Gap(),
		BudgetBound:   f.budgetBound,
		ClosedByBound: closed,
		Stats:         mres.Stats,
		HintRuntime:   hintDur,
		SolveRuntime:  mres.Runtime,
	}
	if proved(res) {
		pf = &proof{pre: pre, x: mres.X}
	}
	if mres.X == nil {
		return res, pf, "", nil
	}
	res.ModelObjective = mres.Objective
	s.readPoint(cfg, res, mres.X)
	if err := verify(cfg, f, res); err != nil {
		return nil, nil, "", err
	}
	return res, pf, "", nil
}

// readPoint fills in res's scenario and demands from a point of the model.
func (s *session) readPoint(cfg *Config, res *Result, x []float64) {
	res.Scenario = s.bm.enc.ScenarioFromSolution(x)
	res.Demands = make([]float64, len(cfg.Demands))
	for k := range cfg.Demands {
		res.Demands[k] = s.bm.dv.value(k, x)
	}
}

// identical answers cfg by the identity rule: its model presolved to the
// Same reduction as a question whose search proved r, so its own search
// would run on the very same problem, whose optimum r's point pf.x holds.
// The question takes r's status and bounds, with its own budget bound, and
// the point read through its own encoding — a question without a count row
// reports the unused links it assumes failed — and verified anew. It
// searches no node.
func (s *session) identical(cfg *Config, f formulation, r *Result, pf *proof) (*Result, error) {
	res := &Result{
		Status:         r.Status,
		ModelObjective: r.ModelObjective,
		Bound:          r.Bound,
		Gap:            r.Gap,
		BudgetBound:    f.budgetBound,
	}
	if pf.x == nil {
		return res, nil
	}
	s.readPoint(cfg, res, pf.x)
	if err := verify(cfg, f, res); err != nil {
		return nil, err
	}
	return res, nil
}

// proved reports whether res is a proof: an optimum or infeasibility.
func proved(res *Result) bool {
	return res.Status == milp.Optimal || res.Status == milp.Infeasible
}

// failureBudget returns q's failure budget (Config.FailureBudget): built at
// the session's first call, and for every later question the same weights
// and coefficients under q's limits.
func (s *session) failureBudget(q *Config) (*failures.Budget, error) {
	if s.budget == nil {
		b, err := q.FailureBudget()
		if err != nil {
			return nil, err
		}
		s.budget = b
		return b, nil
	}
	return s.budget.Limit(q.ProbThreshold, q.MaxFailures)
}

// knapsackFor returns the model's per-node bound under b (Encoding.Knapsack):
// the link binaries and weights of the first budget the session was handed,
// b's limits. Every budget a session is handed shares one shape's weights.
func (s *session) knapsackFor(b *failures.Budget) *milp.Knapsack {
	if s.knapsack == nil {
		s.knapsack = s.bm.enc.Knapsack(b)
	}
	k := *s.knapsack
	k.RHS, k.Count = b.RHS, b.K
	return &k
}

// fixedDemandHints runs quick fixed-demand analyses at two levels of the
// envelope (its top and midpoint) and turns each scenario they find into a
// warm start for the variable search, at the level it was found at. Each
// level's analysis runs through a session of its own, whose budget rows
// take lim's limits.
func (s *session) fixedDemandHints(ctx context.Context, cfg *Config, f formulation, lim *failures.Budget) [][]float64 {
	budget := 10 * time.Second
	if cfg.Solver.TimeLimit > 0 && cfg.Solver.TimeLimit/4 < budget {
		budget = cfg.Solver.TimeLimit / 4
	}
	levels := [...]float64{1.0, 0.5}
	if s.hints == nil {
		s.hints = make([]*session, len(levels))
	}
	var hints [][]float64
	for i, level := range levels {
		sub := *cfg
		if hs := s.hints[i]; hs != nil {
			sub.Envelope = hs.shape.Envelope
		} else {
			lo := make([]float64, len(cfg.Envelope.Lo))
			for k := range lo {
				lo[k] = cfg.Envelope.Lo[k] + level*(cfg.Envelope.Hi[k]-cfg.Envelope.Lo[k])
			}
			sub.Envelope = demand.Envelope{Pairs: cfg.Envelope.Pairs, Lo: lo, Hi: lo}
			s.hints[i] = newSession(&sub, s.f)
		}
		// The hint solves keep the main solve's params (sub is a copy) but
		// for a short budget and a loose gap: same width, and the same
		// tracer, so the trace shows the cheap fixed-demand relaxations
		// nested inside the main solve. Override, never re-list — a
		// re-listing once dropped the width settings.
		sub.Solver.TimeLimit, sub.Solver.MIPGap = budget, 0.05
		sub.Solver.Hints, sub.Solver.OnProgress = nil, nil
		hintStart := time.Now()
		res, _, _, err := s.hints[i].solve(ctx, &sub, f, lim, nil)
		found := err == nil && res.Scenario != nil
		if tr := cfg.Solver.Tracer; tr != nil {
			tr.Emit("metaopt", "hint", obs.F{
				"level":     level,
				"found":     found,
				"runtime_s": time.Since(hintStart).Seconds(),
			})
		}
		if found {
			// level ∈ [0,1] is the grid point Lo + level·(Hi − Lo), rounded.
			maxLevel := (1 << uint(s.bm.dv.q.Bits)) - 1
			steps := int(math.Round(level * float64(maxLevel)))
			hints = append(hints, buildHint(s.bm.m, cfg, s.bm.enc, s.bm.dv, res.Scenario, func(int) int { return steps }))
		}
	}
	return hints
}

// sameShape reports whether a and b ask the same question up to the failure
// budget: the same topology, tunnels, demand envelope, quantization,
// connectivity rule, objective, mode and fail-over model. Tunnels are
// compared by identity — a sweep's cells share one slice per pair count —
// so a caller must not change a slice it has asked about.
func sameShape(a, b *Config) bool {
	return a.Topo == b.Topo &&
		len(a.Demands) == len(b.Demands) && (len(a.Demands) == 0 || &a.Demands[0] == &b.Demands[0]) &&
		sameFloats(a.Envelope.Lo, b.Envelope.Lo) && sameFloats(a.Envelope.Hi, b.Envelope.Hi) &&
		a.QuantBits == b.QuantBits && a.ConnectivityEnforced == b.ConnectivityEnforced &&
		a.Objective == b.Objective && a.Mode == b.Mode && a.NaiveFailover == b.NaiveFailover
}

// sameFloats compares two vectors bit for bit.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// looser reports whether every scenario b's budget admits is admitted by a's
// too, for two questions of the same shape. A lower threshold relaxes the
// probability row. No count row (k = 0) relaxes it further, because only
// then are the unused links more likely down than up assumed failed, which
// raises every scenario's probability. A larger k relaxes the count row.
func looser(a, b *Config) bool {
	return (a.MaxFailures == 0 || b.MaxFailures > 0 && a.MaxFailures >= b.MaxFailures) &&
		a.ProbThreshold <= b.ProbThreshold
}

// sameBudget reports whether a and b carry the same failure budget.
func sameBudget(a, b *Config) bool {
	return a.MaxFailures == b.MaxFailures && math.Float64bits(a.ProbThreshold) == math.Float64bits(b.ProbThreshold)
}
