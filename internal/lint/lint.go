// Package lint is the repository's static-analysis framework: a small,
// stdlib-only analogue of golang.org/x/tools/go/analysis sized to this
// codebase. cmd/raha-lint is a thin driver over it.
//
// The model:
//
//   - A Package is one type-checked lint target (test files included).
//   - Each rule gets a Pass per package (shared type info, thread-safe
//     Report) and visits the package's files in parallel.
//   - Every rule is a per-file visitor: a finding depends only on the file
//     in front of it and its package's type info, never on another package
//     or on the order packages are analyzed in.
//
// The suite is five rules: float-cmp, hot-loop-time, atomic-mix, hot-alloc
// and err-drop (DESIGN.md §2.12). Copying a mutex or a typed atomic by value
// is go vet's copylocks check, which CI already runs.
//
// A finding is suppressed by a `//raha:lint-allow <rule> <why>` comment on
// the same line or the line above. The justification is mandatory: the
// directive audit (cmd/raha-lint's tests) fails on a directive with no
// reason, an unknown rule name, or one that no longer suppresses anything.
package lint

import (
	"context"
	"fmt"
	"go/ast"
	"go/token"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"raha/internal/conc"
)

// Finding is one surviving lint violation.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string

	// ID is a stable identifier for machine consumers (-json): a hash of
	// the rule, the file's base name, the message, and the occurrence
	// index — deliberately not the line number, so unrelated edits above a
	// finding do not change its identity.
	ID string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Directive is one //raha:lint-allow occurrence, with the audit fields the
// driver's tests check.
type Directive struct {
	Pos    token.Position
	Rule   string
	Reason string
	Used   bool // it suppressed at least one finding this run
}

// Result is one Run's outcome.
type Result struct {
	Findings   []Finding   // surviving findings, sorted by position
	Directives []Directive // every allow directive seen, Used filled in
	Packages   int
}

// Rule is one analyzer in the suite.
type Rule struct {
	Name string

	// New returns the rule's visitor for one package, or nil when the rule
	// does not apply to it. The visitor is called for every file of the
	// package, concurrently (one goroutine per file), so it must only touch
	// per-call state or lock.
	New func(p *Pass) func(*ast.File)
}

// All is the rule suite in catalogue order (DESIGN.md §2.12).
func All() []*Rule {
	return []*Rule{ruleFloatCmp, ruleHotLoopTime, ruleAtomicMix, ruleHotAlloc, ruleErrDrop}
}

// RuleNames returns every registered rule name, in catalogue order.
func RuleNames() []string {
	all := All()
	names := make([]string, len(all))
	for i, r := range all {
		names[i] = r.Name
	}
	return names
}

// Program is the whole-run state shared by every pass: raw findings and
// allow directives.
type Program struct {
	mu       sync.Mutex
	findings []Finding
	allows   map[allowKey]*Directive
	dirs     []*Directive
}

// Report records a finding at an already-resolved position. Safe for
// concurrent use; suppression and IDs are applied once at the end of Run.
func (prog *Program) Report(pos token.Position, rule, format string, args ...any) {
	prog.mu.Lock()
	prog.findings = append(prog.findings, Finding{Pos: pos, Rule: rule, Msg: fmt.Sprintf(format, args...)})
	prog.mu.Unlock()
}

// Pass is one rule's view of one package.
type Pass struct {
	Pkg  *Package
	Prog *Program
	rule string
}

// Report records a finding at pos in the pass's package.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.Prog.Report(p.Pkg.Fset.Position(pos), p.rule, format, args...)
}

// Position resolves pos against the pass's file set.
func (p *Pass) Position(pos token.Pos) token.Position { return p.Pkg.Fset.Position(pos) }

// allowKey identifies the (file, line, rule) a directive covers.
type allowKey struct {
	file string
	line int
	rule string
}

// collectAllows indexes one package's //raha:lint-allow directives into the
// program. A directive suppresses the named rule on its own line (trailing
// comment) and on the next line (comment above the offending statement).
// Anything after the rule name is the required human-readable reason.
func (prog *Program) collectAllows(p *Package) {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//raha:lint-allow ")
				if !ok {
					continue
				}
				rule, reason, _ := strings.Cut(strings.TrimSpace(text), " ")
				pos := p.Fset.Position(c.Pos())
				d := &Directive{Pos: pos, Rule: rule, Reason: strings.TrimSpace(reason)}
				prog.mu.Lock()
				prog.dirs = append(prog.dirs, d)
				prog.allows[allowKey{pos.Filename, pos.Line, rule}] = d
				prog.allows[allowKey{pos.Filename, pos.Line + 1, rule}] = d
				prog.mu.Unlock()
			}
		}
	}
}

// Run analyzes pkgs, in any order, under the named rules (nil or empty
// selects the full suite) and returns the surviving findings plus the
// directive audit trail.
func Run(pkgs []*Package, ruleNames []string) (*Result, error) {
	rules, err := selectRules(ruleNames)
	if err != nil {
		return nil, err
	}
	prog := &Program{allows: map[allowKey]*Directive{}}

	for _, pkg := range pkgs {
		prog.collectAllows(pkg)

		var visitors []func(*ast.File)
		for _, r := range rules {
			if v := r.New(&Pass{Pkg: pkg, Prog: prog, rule: r.Name}); v != nil {
				visitors = append(visitors, v)
			}
		}
		// Files in parallel; every rule walks each file. The workers=0
		// default selects GOMAXPROCS.
		err := conc.ForEach(context.Background(), len(pkg.Files), 0, func(_ context.Context, i int) error {
			for _, visit := range visitors {
				visit(pkg.Files[i])
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	res := &Result{Packages: len(pkgs)}
	for _, f := range prog.findings {
		if d := prog.allows[allowKey{f.Pos.Filename, f.Pos.Line, f.Rule}]; d != nil {
			d.Used = true
			continue
		}
		res.Findings = append(res.Findings, f)
	}
	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i].Pos, res.Findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return res.Findings[i].Rule < res.Findings[j].Rule
	})
	assignIDs(res.Findings)
	for _, d := range prog.dirs {
		res.Directives = append(res.Directives, *d)
	}
	sort.Slice(res.Directives, func(i, j int) bool {
		a, b := res.Directives[i].Pos, res.Directives[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return res, nil
}

// selectRules resolves rule names, each at most once and in the order
// given. A nil or empty list is the full suite; a non-empty list that names
// no rule (only blanks, as from `-rules ,`) is an error, not the full suite.
func selectRules(names []string) ([]*Rule, error) {
	all := All()
	if len(names) == 0 {
		return all, nil
	}
	byName := map[string]*Rule{}
	for _, r := range all {
		byName[r.Name] = r
	}
	var out []*Rule
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		r, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (known: %s)", n, strings.Join(RuleNames(), ", "))
		}
		if r != nil {
			out = append(out, r)
			byName[n] = nil // a repeated name runs once
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no rule named in %q (known: %s)", strings.Join(names, ","), strings.Join(RuleNames(), ", "))
	}
	return out, nil
}

// assignIDs fills in stable finding IDs: <rule>-<fnv64a hex> over the rule,
// file base name, message, and the occurrence index among identical
// triples. Stable under line drift; changes only when the finding's text
// or file does.
func assignIDs(fs []Finding) {
	type dupKey struct{ rule, base, msg string }
	seen := map[dupKey]int{}
	for i := range fs {
		base := fs[i].Pos.Filename
		if idx := strings.LastIndexByte(base, '/'); idx >= 0 {
			base = base[idx+1:]
		}
		k := dupKey{fs[i].Rule, base, fs[i].Msg}
		n := seen[k]
		seen[k] = n + 1
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%s|%s|%d", k.rule, k.base, k.msg, n)
		fs[i].ID = fmt.Sprintf("%s-%012x", fs[i].Rule, h.Sum64()&0xffffffffffff)
	}
}
