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
	"raha/internal/topology"
)

// modelFingerprint hashes a built model through milp's read-only accessors:
// every variable's bounds and type; every row's terms, relation and
// right-hand side; the objective's terms, constant and sense. Floats enter by
// their bits, and order is part of the hash.
func modelFingerprint(m *milp.Model) string {
	var buf []byte
	u64 := func(x uint64) { buf = binary.LittleEndian.AppendUint64(buf, x) }
	f64 := func(x float64) { u64(math.Float64bits(x)) }
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
		f64(lo)
		f64(hi)
		u64(uint64(m.TypeOf(v)))
	}
	for i := 0; i < m.NumConstraints(); i++ {
		e, rel, rhs := m.ConstraintAt(i)
		terms(e)
		u64(uint64(rel))
		f64(rhs)
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
// non-default binner — to a hash, so no variable, bound, row, coefficient or
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
	quantBits := func(n int) func(*Config) { return func(c *Config) { c.QuantBits = n } }
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"totalflow/gap/fixed", mk(TotalFlow, Gap, "fixed", nil), "97f619e244074d62"},
		{"totalflow/gap/variable", mk(TotalFlow, Gap, "variable", nil), "c8f640b92cd2f7de"},
		{"totalflow/failedonly/fixed", mk(TotalFlow, FailedOnly, "fixed", nil), "ecca7092c44047db"},
		{"totalflow/failedonly/variable", mk(TotalFlow, FailedOnly, "variable", nil), "845b0b7b4a6772d9"},
		{"mlu/gap/fixed", mk(MLU, Gap, "fixed", nil), "23dcd522be2059a5"},
		{"mlu/gap/variable", mk(MLU, Gap, "variable", nil), "e591de50b7fa9294"},
		{"mlu/failedonly/fixed", mk(MLU, FailedOnly, "fixed", nil), "c13ffaf526ffc78e"},
		{"mlu/failedonly/variable", mk(MLU, FailedOnly, "variable", nil), "920c5f738df4f541"},
		{"maxmin/gap/fixed", mk(MaxMin, Gap, "fixed", nil), "336e8705917e492c"},
		{"maxmin/gap/variable", mk(MaxMin, Gap, "variable", nil), "7ea3eb4e50ed5515"},
		{"maxmin/failedonly/fixed", mk(MaxMin, FailedOnly, "fixed", nil), "f72ebfd2506bb8f9"},
		{"maxmin/failedonly/variable", mk(MaxMin, FailedOnly, "variable", nil), "3bde9e35bf2d348c"},
		{"totalflow/gap/fixed/naive", mk(TotalFlow, Gap, "fixed", naive), "cd1a79dffdd0667c"},
		{"totalflow/failedonly/fixed/naive", mk(TotalFlow, FailedOnly, "fixed", naive), "6756dc4ffcdb052d"},
		// A zero QuantBits against its explicit default.
		{"totalflow/gap/variable/quantbits=0", mk(TotalFlow, Gap, "variable", quantBits(0)), "de0eb2f5ca076cd7"},
		{"totalflow/gap/variable/quantbits=3", mk(TotalFlow, Gap, "variable", quantBits(3)), "de0eb2f5ca076cd7"},
		{"mlu/gap/variable/quantbits=0", mk(MLU, Gap, "variable", quantBits(0)), "c32b97ac990e3703"},
		{"mlu/gap/variable/quantbits=3", mk(MLU, Gap, "variable", quantBits(3)), "c32b97ac990e3703"},
		{"maxmin/gap/variable/quantbits=0", mk(MaxMin, Gap, "variable", quantBits(0)), "c0bdd68605935371"},
		{"maxmin/gap/variable/quantbits=3", mk(MaxMin, Gap, "variable", quantBits(3)), "c0bdd68605935371"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, err := c.cfg.validate()
			if err != nil {
				t.Fatal(err)
			}
			bm, err := build(&c.cfg, f)
			if err != nil {
				t.Fatal(err)
			}
			if got := modelFingerprint(bm.m); got != c.want {
				t.Errorf("model fingerprint %s, want %s", got, c.want)
			}
		})
	}
}
