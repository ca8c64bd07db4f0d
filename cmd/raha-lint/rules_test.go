package main

import (
	"testing"

	"raha/internal/lint"
)

// Each new rule gets its own fixture package so the legacy corpus stays
// byte-stable; every test runs exactly the rule under test, so a fixture's
// incidental violations of other rules cannot bleed in.

func TestAtomicMixFixture(t *testing.T) {
	p := loadOne(t, "./testdata/src/atomicmix")
	pkgs := []*lint.Package{p}
	compare(t, run(t, pkgs, "atomic-mix").Findings, collectMarkers(t, pkgs))
}

// TestHotAllocFixture masquerades the fixture as internal/milp, the same
// trick the legacy hot-loop-time corpus uses: the rule is dormant
// elsewhere.
func TestHotAllocFixture(t *testing.T) {
	p := loadOne(t, "./testdata/src/hotalloc")
	pkgs := []*lint.Package{p}

	if res := run(t, pkgs, "hot-alloc"); len(res.Findings) != 0 {
		t.Fatalf("hot-alloc fired outside the solver packages: %v", res.Findings)
	}

	saved := p.Path
	p.Path = "raha/internal/milp"
	defer func() { p.Path = saved }()
	compare(t, run(t, pkgs, "hot-alloc").Findings, collectMarkers(t, pkgs))
}

func TestErrDropFixture(t *testing.T) {
	p := loadOne(t, "./testdata/src/errdrop")
	pkgs := []*lint.Package{p}
	compare(t, run(t, pkgs, "err-drop").Findings, collectMarkers(t, pkgs))
}

// TestRulesFilter pins -rules semantics: an unknown rule is an error, a
// subset runs only that subset, a repeated name runs once, and a list that
// names no rule (`-rules ,`) is an error rather than the whole suite.
func TestRulesFilter(t *testing.T) {
	p := loadOne(t, "./testdata/src/errdrop")
	pkgs := []*lint.Package{p}
	if _, err := lint.Run(pkgs, []string{"no-such-rule"}); err == nil {
		t.Error("unknown rule name did not error")
	}
	res := run(t, pkgs, "float-cmp")
	if len(res.Findings) != 0 {
		t.Errorf("float-cmp-only run on the errdrop fixture found %d findings, want 0", len(res.Findings))
	}
	once, twice := run(t, pkgs, "err-drop"), run(t, pkgs, "err-drop", "err-drop")
	if len(once.Findings) == 0 || len(twice.Findings) != len(once.Findings) {
		t.Errorf("-rules err-drop,err-drop found %d findings, -rules err-drop %d", len(twice.Findings), len(once.Findings))
	}
	if _, err := lint.Run(pkgs, []string{"", ""}); err == nil {
		t.Error("-rules , named no rule and did not error")
	}
}

// TestEveryRuleHasAFixture keeps the rule list and the fixture corpus in
// step: every registered rule has at least one want marker under
// testdata/src, and every marker names a registered rule.
func TestEveryRuleHasAFixture(t *testing.T) {
	markers := collectMarkers(t, loadPkgs(t, "./testdata/src/..."))
	marked := map[string]bool{}
	for _, m := range markers {
		marked[m.rule] = true
	}
	known := map[string]bool{}
	for _, name := range lint.RuleNames() {
		known[name] = true
		if !marked[name] {
			t.Errorf("rule %s has no want marker under testdata/src", name)
		}
	}
	for _, m := range markers {
		if !known[m.rule] {
			t.Errorf("%s: marker names unregistered rule %q", m, m.rule)
		}
	}
}

// TestStableIDs pins the -json contract: finding IDs survive line drift
// (they hash rule, file base name, message, and occurrence index — not the
// line number), and distinct findings get distinct IDs.
func TestStableIDs(t *testing.T) {
	p := loadOne(t, "./testdata/src/golden")
	first := run(t, []*lint.Package{p}, "float-cmp", "err-drop")
	second := run(t, []*lint.Package{p}, "float-cmp", "err-drop")
	if len(first.Findings) == 0 {
		t.Fatal("golden fixture produced no findings")
	}
	seen := map[string]bool{}
	for i := range first.Findings {
		if first.Findings[i].ID != second.Findings[i].ID {
			t.Errorf("ID not stable across runs: %q vs %q", first.Findings[i].ID, second.Findings[i].ID)
		}
		if seen[first.Findings[i].ID] {
			t.Errorf("duplicate finding ID %q", first.Findings[i].ID)
		}
		seen[first.Findings[i].ID] = true
	}
}
