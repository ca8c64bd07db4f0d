package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
	ForTest    string
	Error      *struct{ Err string }
}

// Package is one fully type-checked lint target.
type Package struct {
	Path  string // the source import path (test variants collapse onto it)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	Types *types.Package
}

// Load resolves patterns to packages and type-checks each from source.
//
// It shells out to `go list -export -deps -test` once: the -export build
// produces compiler export data for every dependency (standard library
// included — module builds no longer install std .a files, so the default
// gc importer would find nothing), and -test swaps each matched package for
// its test variant so _test.go files are linted too. The matched packages
// themselves are then parsed and type-checked from source, importing
// dependencies through their export files.
//
// The returned slice preserves `go list -deps`'s depth-first post-order, so
// a package always appears after the packages it imports. No rule depends
// on that order: every rule is a per-file visitor. Two kinds of test
// variant exist: the in-package variant (same package name, _test.go files
// added), which supersedes the plain package, and the external _test
// package, which becomes a lint target of its own.
func Load(patterns []string) ([]*Package, error) {
	args := append([]string{
		"list", "-e",
		"-json=ImportPath,Dir,Name,GoFiles,Export,ImportMap,Standard,DepOnly,ForTest,Error",
		"-export", "-deps", "-test",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Env = os.Environ()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exports := map[string]string{} // import path (incl. variants) -> export file
	var targets []*listPkg
	seen := map[string]int{} // source path -> index into targets
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		// Lint targets are the pattern-matched packages — not their deps,
		// not the synthesized .test mains.
		if p.Standard || p.DepOnly || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		q := p
		if p.ForTest == "" {
			if _, ok := seen[p.ImportPath]; !ok {
				seen[p.ImportPath] = len(targets)
				targets = append(targets, &q)
			}
			continue
		}
		if strings.HasSuffix(p.Name, "_test") {
			// External test package (package foo_test): its own target.
			src := variantSource(p.ImportPath)
			if _, ok := seen[src]; !ok {
				seen[src] = len(targets)
				targets = append(targets, &q)
			}
			continue
		}
		// In-package test variant: its file list is the plain list plus the
		// in-package _test.go files, so it supersedes the plain package.
		if i, ok := seen[p.ForTest]; ok {
			targets[i] = &q
		} else {
			seen[p.ForTest] = len(targets)
			targets = append(targets, &q)
		}
	}

	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		p, err := typeCheck(t, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// variantSource maps a test-variant import path onto the path the target is
// analyzed under: "raha_test [raha.test]" -> "raha_test", and in-package
// variants onto their ForTest source path.
func variantSource(importPath string) string {
	if i := strings.IndexByte(importPath, ' '); i >= 0 {
		return importPath[:i]
	}
	return importPath
}

// typeCheck parses and checks one target package, resolving imports through
// the export files `go list -export` produced.
func typeCheck(t *listPkg, exports map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(t.GoFiles))
	for _, name := range t.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := t.ImportMap[path]; ok {
			path = mapped
		}
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	}
	src := t.ImportPath
	if t.ForTest != "" {
		if strings.HasSuffix(t.Name, "_test") {
			src = variantSource(t.ImportPath)
		} else {
			src = t.ForTest
		}
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tpkg, err := conf.Check(src, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", src, err)
	}
	return &Package{Path: src, Dir: t.Dir, Fset: fset, Files: files, Info: info, Types: tpkg}, nil
}
