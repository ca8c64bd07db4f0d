package main

import (
	"testing"

	"raha/internal/lint"
)

// TestTreeCleanAndDirectiveAudit is the dogfood gate and the allow-directive
// audit in one pass over the real tree:
//
//   - the repository must be clean under all five rules (a finding here is a
//     regression — fix it or, with a reviewed reason, suppress it);
//   - every //raha:lint-allow directive must name an existing rule, carry a
//     non-empty reason, and actually suppress a finding — a stale directive
//     is dead weight that silently licenses future violations.
func TestTreeCleanAndDirectiveAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole tree; skipped in -short")
	}
	pkgs := loadPkgs(t, "raha/...")
	res := run(t, pkgs)

	for _, f := range res.Findings {
		t.Errorf("tree not clean: %s", f)
	}

	known := map[string]bool{}
	for _, name := range lint.RuleNames() {
		known[name] = true
	}
	for _, d := range res.Directives {
		where := d.Pos.String()
		if !known[d.Rule] {
			t.Errorf("%s: allow directive names unknown rule %q", where, d.Rule)
		}
		if d.Reason == "" {
			t.Errorf("%s: allow directive for %s has no reason; the justification is mandatory", where, d.Rule)
		}
		if !d.Used {
			t.Errorf("%s: stale allow directive for %s suppresses nothing; delete it", where, d.Rule)
		}
	}
}
