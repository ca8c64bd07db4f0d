package metaopt

import (
	"fmt"
	"testing"

	"raha/internal/demand"
	"raha/internal/milp"
	"raha/internal/modelcheck"
	"raha/internal/paths"
	"raha/internal/topology"
)

// checkModel adapts a built model into the neutral representation the
// modelcheck pass walks, through milp's read-only accessors. The model has no
// names, so variables and rows are named by index: v17, r40.
func checkModel(m *milp.Model) *modelcheck.Model {
	terms := func(e milp.Expr) []modelcheck.Term {
		out := make([]modelcheck.Term, len(e.Terms))
		for i, t := range e.Terms {
			out[i] = modelcheck.Term{Var: int(t.V), Coef: t.C}
		}
		return out
	}
	cm := &modelcheck.Model{
		Vars: make([]modelcheck.Var, m.NumVars()),
		Cons: make([]modelcheck.Constraint, m.NumConstraints()),
	}
	for i := range cm.Vars {
		v := milp.Var(i)
		lo, hi := m.Bounds(v)
		cm.Vars[i] = modelcheck.Var{Name: fmt.Sprintf("v%d", i), Lo: lo, Hi: hi, Integer: m.TypeOf(v) != milp.Continuous}
	}
	for i := range cm.Cons {
		e, rel, rhs := m.ConstraintAt(i)
		cm.Cons[i] = modelcheck.Constraint{Name: fmt.Sprintf("r%d", i), Terms: terms(e), Rel: modelcheck.Rel(rel), RHS: rhs}
	}
	obj, _ := m.Objective()
	cm.Obj = terms(obj)
	return cm
}

// TestBuiltModelsCheckClean runs the modelcheck catalogue over the model the
// rewrite builds for each shape a Raha analysis solves — every objective;
// B4, Uninett2010 and AfricaWAN; variable and fixed demand; CE on and off;
// k > 0 — and requires zero error- and warning-severity diagnostics. Infos
// are allowed: trivial-redundant fires on McCormick lower-bound rows, which
// presolve drops. A fixed-demand analysis's hint solves build through the
// same function, so the fixed rows cover them too. The b4 and uninett rows
// are the paper's figure setups. Each shape must also show the
// trivial-redundant infos, and a broken variable and rows appended to it must
// come back as errors, so a lossy adapter cannot pass the test by checking
// nothing.
func TestBuiltModelsCheckClean(t *testing.T) {
	type shape struct {
		top      *topology.Topology
		pairs    int
		pairSeed int64 // TopPairs and Gravity seed
		scale    float64
		primary  int
		backup   int
	}
	figure := func(top *topology.Topology, seed int64) shape { return shape{top, 6, seed, 1, 4, 1} }
	production := shape{topology.SmallWAN(), 6, 4, 0.2, 2, 1}
	mk := func(s shape, env func(demand.Matrix) demand.Envelope, edit func(*Config)) func(*testing.T) Config {
		return func(t *testing.T) Config {
			pairs := demand.TopPairs(s.top, s.pairs, s.pairSeed)
			dps, err := paths.Compute(s.top, pairs, s.primary, s.backup, nil)
			if err != nil {
				t.Fatal(err)
			}
			base := demand.Gravity(s.top, pairs, s.top.MeanLAGCapacity()*s.scale, s.pairSeed)
			cfg := Config{
				Topo: s.top, Demands: dps, Envelope: env(base),
				ProbThreshold: 1e-4, QuantBits: 2,
			}
			if edit != nil {
				edit(&cfg)
			}
			return cfg
		}
	}
	variable := func(base demand.Matrix) demand.Envelope { return demand.UpTo(base, 0.5) }
	fixed := func(base demand.Matrix) demand.Envelope { return demand.Fixed(base) }
	k2 := func(c *Config) { c.MaxFailures = 2 }
	ceK2 := func(c *Config) { c.ConnectivityEnforced, c.MaxFailures = true, 2 }
	objective := func(o Objective) func(*Config) {
		return func(c *Config) { c.Objective, c.ConnectivityEnforced = o, o == MLU }
	}
	cases := []struct {
		name string
		cfg  func(*testing.T) Config
	}{
		{"b4", mk(figure(topology.B4(), 4), variable, k2)},
		{"uninett", mk(figure(topology.Uninett2010(), 2010), variable, k2)},
		{"b4/fixed/ce/k=2", mk(figure(topology.B4(), 4), fixed, ceK2)},
		{"uninett/fixed/k=2", mk(figure(topology.Uninett2010(), 2010), fixed, k2)},
		{"africawan/fixed", func(t *testing.T) Config { return africaAlertConfig(t, 2) }},
		{"africawan/variable/ce", func(t *testing.T) Config {
			// The alert's phase 2: every demand in [0, peak].
			cfg := africaAlertConfig(t, 2)
			cfg.Envelope.Lo = make([]float64, len(cfg.Envelope.Hi))
			cfg.ConnectivityEnforced = true
			return cfg
		}},
		{"mlu", mk(production, variable, objective(MLU))},
		{"maxmin", mk(production, variable, objective(MaxMin))},
		{"b4/mlu/fixed/k=2", mk(figure(topology.B4(), 4), fixed, func(c *Config) { objective(MLU)(c); c.MaxFailures = 2 })},
		{"uninett/maxmin", mk(figure(topology.Uninett2010(), 2010), variable, objective(MaxMin))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg(t)
			f, err := cfg.validate()
			if err != nil {
				t.Fatal(err)
			}
			bm, err := build(&cfg, f)
			if err != nil {
				t.Fatal(err)
			}
			m := bm.m
			rep := modelcheck.Check(checkModel(m))
			bad := rep.Filter(modelcheck.Warning)
			if len(bad) > 0 {
				t.Fatalf("%d vars × %d rows: %d warning- or error-severity diagnostics:\n%s",
					m.NumVars(), m.NumConstraints(), len(bad), bad)
			}
			redundant := 0
			for _, d := range rep {
				if d.ID == modelcheck.TrivialRedundant {
					redundant++
				}
			}
			if redundant == 0 {
				t.Fatalf("%d vars × %d rows: no %s info, want one per McCormick lower-bound row", m.NumVars(), m.NumConstraints(), modelcheck.TrivialRedundant)
			}
			t.Logf("%d vars × %d rows: %d info diagnostics", m.NumVars(), m.NumConstraints(), len(rep))

			// Negative control: a broken variable and broken rows of each
			// relation, appended after the built ones, must come back through
			// the adapter as errors, and nothing else may.
			y := m.ContinuousVar(0, 1)
			z := m.NewVar(0.2, 0.8, milp.Integer)
			rows := m.NumConstraints()
			m.Add(milp.NewExpr(milp.T(1, y)), milp.LE, -1)
			m.Add(milp.NewExpr(milp.T(1, y)), milp.GE, 2)
			m.Add(milp.NewExpr(milp.T(1, y), milp.T(1, z)), milp.EQ, 3)
			want := map[string]string{
				fmt.Sprintf("v%d", z): modelcheck.IntBounds, fmt.Sprintf("r%d", rows): modelcheck.TrivialInfeasible,
				fmt.Sprintf("r%d", rows+1): modelcheck.TrivialInfeasible, fmt.Sprintf("r%d", rows+2): modelcheck.TrivialInfeasible,
			}
			bad = modelcheck.Check(checkModel(m)).Filter(modelcheck.Warning)
			for _, d := range bad {
				if at := d.Con + d.Var; want[at] == d.ID && d.Severity == modelcheck.Error {
					delete(want, at)
				} else {
					t.Errorf("unexpected diagnostic on the broken model: %s", d)
				}
			}
			if len(want) > 0 {
				t.Fatalf("broken model: missing error diagnostics %v", want)
			}
		})
	}
}
