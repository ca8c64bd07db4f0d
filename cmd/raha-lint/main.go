// Command raha-lint is the thin driver over internal/lint, the repository's
// static-analysis framework. It enforces, beyond go vet, the conventions
// this codebase relies on for correctness and reproducibility:
//
//	float-cmp       no == / != between two non-constant floats — order them
//	                or compare against a tolerance.
//	hot-loop-time   no time.* or math/rand calls inside loops of the solver
//	                packages (internal/lp, internal/milp).
//	atomic-mix      a field accessed via sync/atomic anywhere must never be
//	                accessed plainly elsewhere (whole-program, via facts).
//	hot-alloc       no allocation sites (make/new, growing append,
//	                composite literals, closures) inside loops of the
//	                solver packages.
//	err-drop        no silently discarded error results outside tests;
//	                `_ = f()` marks a deliberate drop.
//
// A finding is suppressed by a `//raha:lint-allow <rule> <why>` comment on
// the same line or the line above; the justification is mandatory and the
// test suite audits every directive in the tree (existing rule, non-empty
// reason, actually suppresses something).
//
// Usage:
//
//	raha-lint [-json] [-rules rule,rule,...] [packages...]   # defaults to ./...
//
// -json writes a machine-readable report to stdout (stable finding IDs,
// paths relative to the working directory) and, when findings exist, the
// human-readable file:line lines to stderr so CI logs stay greppable.
// -rules restricts the run to a comma-separated subset of the rules above;
// a repeated name runs once, and a list that names no rule is an error.
//
// Exit status is 0 when clean, 1 when findings were reported, 2 when the
// packages failed to load or type-check. Implemented entirely with the
// standard library: `go list -export` supplies export data for dependencies
// and each linted package is type-checked from source, test files included.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"raha/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "write a machine-readable report to stdout")
	rules := flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: raha-lint [-json] [-rules rule,...] [packages...]\nrules: %s\n",
			strings.Join(lint.RuleNames(), ", "))
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var ruleNames []string
	if *rules != "" {
		ruleNames = strings.Split(*rules, ",")
	}

	pkgs, err := lint.Load(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "raha-lint: %v\n", err)
		os.Exit(2)
	}
	res, err := lint.Run(pkgs, ruleNames)
	if err != nil {
		fmt.Fprintf(os.Stderr, "raha-lint: %v\n", err)
		os.Exit(2)
	}

	if *jsonOut {
		wd, _ := os.Getwd()
		if err := lint.WriteJSON(os.Stdout, res.Findings, wd); err != nil {
			fmt.Fprintf(os.Stderr, "raha-lint: %v\n", err)
			os.Exit(2)
		}
		for _, f := range res.Findings {
			fmt.Fprintln(os.Stderr, f)
		}
	} else {
		for _, f := range res.Findings {
			fmt.Println(f)
		}
	}
	if n := len(res.Findings); n > 0 {
		fmt.Fprintf(os.Stderr, "raha-lint: %d finding(s) in %d package(s)\n", n, res.Packages)
		os.Exit(1)
	}
}
