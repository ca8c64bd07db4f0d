package main

import (
	"fmt"
	"strings"
	"testing"

	"raha/internal/lint"
)

// marker is one expected finding, declared in the fixture source as a
// trailing `// want:<rule>` comment.
type marker struct {
	file string
	line int
	rule string
}

func (m marker) String() string { return fmt.Sprintf("%s:%d: [%s]", m.file, m.line, m.rule) }

// collectMarkers scans the fixture packages' comments for want markers.
func collectMarkers(t *testing.T, pkgs []*lint.Package) []marker {
	t.Helper()
	var out []marker
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, "want:")
					if idx < 0 {
						continue
					}
					rule := strings.Fields(c.Text[idx+len("want:"):])[0]
					pos := p.Fset.Position(c.Pos())
					out = append(out, marker{file: pos.Filename, line: pos.Line, rule: rule})
				}
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("fixture declares no want markers")
	}
	return out
}

func loadPkgs(t *testing.T, patterns ...string) []*lint.Package {
	t.Helper()
	pkgs, err := lint.Load(patterns)
	if err != nil {
		t.Fatalf("loading %v: %v", patterns, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("loading %v: no packages", patterns)
	}
	return pkgs
}

func loadOne(t *testing.T, pattern string) *lint.Package {
	t.Helper()
	pkgs := loadPkgs(t, pattern)
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages for %s, want 1", len(pkgs), pattern)
	}
	return pkgs[0]
}

func run(t *testing.T, pkgs []*lint.Package, rules ...string) *lint.Result {
	t.Helper()
	res, err := lint.Run(pkgs, rules)
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	return res
}

// compare checks findings against markers one-to-one.
func compare(t *testing.T, findings []lint.Finding, want []marker) {
	t.Helper()
	wantSet := map[marker]bool{}
	for _, m := range want {
		wantSet[m] = true
	}
	for _, f := range findings {
		m := marker{file: f.Pos.Filename, line: f.Pos.Line, rule: f.Rule}
		if !wantSet[m] {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		delete(wantSet, m)
	}
	for m := range wantSet {
		t.Errorf("missing finding: %s", m)
	}
}

// legacyRules are the two single-file rules the legacy fixture corpus is
// asserted against (the other rules have their own fixture packages).
var legacyRules = []string{"float-cmp", "hot-loop-time"}

// TestFixture lints the legacy fixture corpus twice: once under its real
// import path, where the hot-loop-time rule is dormant (it only applies to
// the solver packages), and once masquerading as internal/milp, where every
// marker must fire.
func TestFixture(t *testing.T) {
	p := loadOne(t, "./testdata/src/fixture")
	markers := collectMarkers(t, []*lint.Package{p})

	t.Run("non-solver package", func(t *testing.T) {
		var want []marker
		for _, m := range markers {
			if m.rule != "hot-loop-time" {
				want = append(want, m)
			}
		}
		compare(t, run(t, []*lint.Package{p}, legacyRules...).Findings, want)
	})

	t.Run("as solver package", func(t *testing.T) {
		saved := p.Path
		p.Path = "raha/internal/milp"
		defer func() { p.Path = saved }()
		compare(t, run(t, []*lint.Package{p}, legacyRules...).Findings, markers)
	})
}

// TestAllowDirective pins the suppression mechanics: the directive covers
// its own line and the next, for the named rule only, and the framework
// marks it used.
func TestAllowDirective(t *testing.T) {
	p := loadOne(t, "./testdata/src/fixture")
	res := run(t, []*lint.Package{p}, legacyRules...)

	var directive *lint.Directive
	for i := range res.Directives {
		if res.Directives[i].Rule == "float-cmp" {
			directive = &res.Directives[i]
			break
		}
	}
	if directive == nil {
		t.Fatal("fixture's float-cmp allow directive not collected")
	}
	if directive.Reason == "" {
		t.Error("directive reason not captured")
	}
	if !directive.Used {
		t.Error("directive did not suppress its finding")
	}
	for _, f := range res.Findings {
		if f.Pos.Filename == directive.Pos.Filename &&
			(f.Pos.Line == directive.Pos.Line || f.Pos.Line == directive.Pos.Line+1) {
			t.Errorf("suppressed line still reported: %s", f)
		}
	}
}

// TestTestFilesAreLinted guards the loader's -test wiring: the package list
// for a package with _test.go files must include them (the repository's own
// test files are subject to most rules).
func TestTestFilesAreLinted(t *testing.T) {
	p := loadOne(t, "raha/internal/milp")
	found := false
	for _, f := range p.Files {
		if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			found = true
		}
	}
	if !found {
		t.Fatal("test variant of internal/milp carries no _test.go files")
	}
}

// TestExternalTestPackage guards the loader against the variant-collapse
// bug: the root package has both an in-package test variant (which must
// supersede the plain package, keeping raha.go and its _test.go files
// linted) and an external raha_test package (which must survive as its own
// target, not overwrite the internal variant).
func TestExternalTestPackage(t *testing.T) {
	pkgs := loadPkgs(t, "raha")
	byPath := map[string]*lint.Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	root, ok := byPath["raha"]
	if !ok {
		t.Fatalf("root package missing from %d targets", len(pkgs))
	}
	ext, ok := byPath["raha_test"]
	if !ok {
		t.Fatalf("external raha_test package missing from %d targets", len(pkgs))
	}
	inPkgTests := false
	for _, f := range root.Files {
		if strings.HasSuffix(root.Fset.Position(f.Pos()).Filename, "_test.go") {
			inPkgTests = true
		}
	}
	if !inPkgTests {
		t.Error("raha target lost its in-package _test.go files (external variant overwrote it)")
	}
	if len(ext.Files) == 0 {
		t.Error("raha_test target carries no files")
	}
}
