package metaopt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"raha/internal/demand"
	"raha/internal/milp"
	"raha/internal/paths"
	"raha/internal/te"
	"raha/internal/topology"
)

// modelFingerprint hashes a built model through milp's read-only accessors:
// every variable's name, bounds and type; every row's terms, relation,
// right-hand side and name; the objective's terms, constant and sense. Floats
// enter by their bits, and order is part of the hash.
func modelFingerprint(m *milp.Model) string {
	var buf []byte
	u64 := func(x uint64) { buf = binary.LittleEndian.AppendUint64(buf, x) }
	f64 := func(x float64) { u64(math.Float64bits(x)) }
	str := func(s string) { u64(uint64(len(s))); buf = append(buf, s...) }
	terms := func(e milp.Expr) {
		u64(uint64(len(e.Terms)))
		for _, t := range e.Terms {
			u64(uint64(t.V))
			f64(t.C)
		}
	}
	for i := 0; i < m.NumVars(); i++ {
		v := milp.Var(i)
		lo, hi := m.Bounds(v)
		str(m.Name(v))
		f64(lo)
		f64(hi)
		u64(uint64(m.TypeOf(v)))
	}
	for i := 0; i < m.NumConstraints(); i++ {
		e, rel, rhs, name := m.ConstraintAt(i)
		terms(e)
		u64(uint64(rel))
		f64(rhs)
		str(name)
	}
	obj, sense := m.Objective()
	terms(obj)
	f64(obj.Const)
	u64(uint64(sense))
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// TestModelFingerprints pins the model every objective builds — in both
// modes, on a fixed and a variable envelope, with naive fail-over and with a
// non-default binner — to the hash it had while each objective still carried
// its own copy of the rewrite, so no variable, row, name, coefficient or
// creation order can move unnoticed. A zero-value config and its explicit
// defaults share a hash.
func TestModelFingerprints(t *testing.T) {
	top := topology.SmallWAN()
	pairs := demand.TopPairs(top, 4, 1)
	base := demand.Gravity(top, pairs, top.MeanLAGCapacity()*0.4, 1)
	dps, err := paths.Compute(top, pairs, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	envs := map[string]demand.Envelope{"fixed": demand.Fixed(base), "variable": demand.Around(base, 0.5)}
	mk := func(o Objective, mode Mode, env string, edit func(*Config)) Config {
		c := Config{
			Topo: top, Demands: dps, Envelope: envs[env], Objective: o, Mode: mode,
			ProbThreshold: 1e-4, MaxFailures: 2, ConnectivityEnforced: true, QuantBits: 2,
		}
		if edit != nil {
			edit(&c)
		}
		return c
	}
	naive := func(c *Config) { c.NaiveFailover = true }
	binner := func(c *Config) { c.MaxMinBinner = te.BinnerConfig{Bins: 4, Ratio: 3} }
	quantBits := func(n int) func(*Config) { return func(c *Config) { c.QuantBits = n } }
	dualBound10 := func(c *Config) { c.MLUDualBound = 10 }
	binner62 := func(c *Config) { c.MaxMinBinner = te.BinnerConfig{Bins: 6, Ratio: 2} }
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"totalflow/gap/fixed", mk(TotalFlow, Gap, "fixed", nil), "5c8304312a62c463"},
		{"totalflow/gap/variable", mk(TotalFlow, Gap, "variable", nil), "a1fc4896f4145c1a"},
		{"totalflow/failedonly/fixed", mk(TotalFlow, FailedOnly, "fixed", nil), "49d189a805755fee"},
		{"totalflow/failedonly/variable", mk(TotalFlow, FailedOnly, "variable", nil), "0fc60f4713eeb651"},
		{"mlu/gap/fixed", mk(MLU, Gap, "fixed", nil), "962161c20443fbb8"},
		{"mlu/gap/variable", mk(MLU, Gap, "variable", nil), "9d345fbb32f77eb9"},
		{"mlu/failedonly/fixed", mk(MLU, FailedOnly, "fixed", nil), "2256ce222aeeeef8"},
		{"mlu/failedonly/variable", mk(MLU, FailedOnly, "variable", nil), "17d68b929052cb31"},
		{"maxmin/gap/fixed", mk(MaxMin, Gap, "fixed", nil), "2b0b22b8792739a2"},
		{"maxmin/gap/variable", mk(MaxMin, Gap, "variable", nil), "10749748841efcc4"},
		{"maxmin/failedonly/fixed", mk(MaxMin, FailedOnly, "fixed", nil), "1c6b4906d3127982"},
		{"maxmin/failedonly/variable", mk(MaxMin, FailedOnly, "variable", nil), "7b97d797291cf825"},
		{"totalflow/gap/fixed/naive", mk(TotalFlow, Gap, "fixed", naive), "caf3646fd505b857"},
		{"totalflow/failedonly/fixed/naive", mk(TotalFlow, FailedOnly, "fixed", naive), "887be63557e61bf1"},
		{"maxmin/gap/fixed/binner", mk(MaxMin, Gap, "fixed", binner), "13e37b8831026e12"},
		{"maxmin/gap/variable/binner", mk(MaxMin, Gap, "variable", binner), "0d12275b726c1013"},
		// Zero values against explicit defaults. The rows above leave
		// MLUDualBound and MaxMinBinner at zero.
		{"totalflow/gap/variable/quantbits=0", mk(TotalFlow, Gap, "variable", quantBits(0)), "952be0783a99faac"},
		{"totalflow/gap/variable/quantbits=3", mk(TotalFlow, Gap, "variable", quantBits(3)), "952be0783a99faac"},
		{"mlu/gap/variable/quantbits=0", mk(MLU, Gap, "variable", quantBits(0)), "7c78b7882c95eeef"},
		{"mlu/gap/variable/quantbits=3", mk(MLU, Gap, "variable", quantBits(3)), "7c78b7882c95eeef"},
		{"maxmin/gap/variable/quantbits=0", mk(MaxMin, Gap, "variable", quantBits(0)), "90edc48636021d07"},
		{"maxmin/gap/variable/quantbits=3", mk(MaxMin, Gap, "variable", quantBits(3)), "90edc48636021d07"},
		{"mlu/gap/variable/dualbound=10", mk(MLU, Gap, "variable", dualBound10), "9d345fbb32f77eb9"},
		{"maxmin/gap/variable/dualbound=10", mk(MaxMin, Gap, "variable", dualBound10), "10749748841efcc4"},
		{"maxmin/gap/variable/binner={6,2}", mk(MaxMin, Gap, "variable", binner62), "10749748841efcc4"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, err := c.cfg.validate()
			if err != nil {
				t.Fatal(err)
			}
			m, _, _, err := build(&c.cfg, f)
			if err != nil {
				t.Fatal(err)
			}
			if got := modelFingerprint(m); got != c.want {
				t.Errorf("model fingerprint %s, want %s", got, c.want)
			}
		})
	}
}
