// Package analysis is the static gate: four analyzers (under passes/)
// machine-check the stack's correctness contracts, and TestVet runs them
// over the whole program inside `go test ./...`. It needs only the standard
// library — the repository carries no third-party dependency — so it is a
// small driver of its own, not golang.org/x/tools/go/analysis: an Analyzer
// inspects one type-checked package through a Pass, and Run is the one
// place passes are built and run, `//sicklevet:ignore` directives (ignore.go)
// are applied and checked, and diagnostics are ordered. Packages come from
// internal/analysis/load; cross-package state (metricname's one
// registration site per series) lives in the analyzer that needs it.
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Analyzer describes one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //sicklevet:ignore directives. Lower-case, no spaces.
	Name string
	// Run inspects one package and reports through the Pass.
	Run func(*Pass) error
}

// Pass carries one type-checked package to an analyzer.
type Pass struct {
	Fset *token.FileSet
	// Files holds the package's non-test syntax trees: the contracts the
	// analyzers enforce are production-code contracts.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(token.Pos, string)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Message string
	// Analyzer names the analyzer that reported it; "sicklevet" for a
	// finding about a //sicklevet: directive itself.
	Analyzer string
}

// Run runs the analyzers over one type-checked package and returns what
// no directive suppressed, plus a diagnostic for every directive that is
// malformed, names an analyzer outside this run or suppressed nothing,
// ordered by file, line and column.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers ...*Analyzer) ([]Diagnostic, error) {
	ignores := parseIgnores(fset, files)
	out := ignores.malformed
	for _, a := range analyzers {
		pass := &Pass{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
		pass.report = func(pos token.Pos, msg string) {
			if p := fset.Position(pos); !ignores.suppressed(a.Name, p) {
				out = append(out, Diagnostic{Pos: p, Message: msg, Analyzer: a.Name})
			}
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
	}
	out = append(out, ignores.stale(analyzers)...)
	slices.SortStableFunc(out, func(a, b Diagnostic) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line), cmp.Compare(a.Pos.Column, b.Pos.Column))
	})
	return out, nil
}

// --- shared type/AST helpers used by the passes ---

// CalleeFunc resolves the static function or method a call dispatches to,
// or nil for calls through function-typed values and type conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// IsFuncNamed reports whether fn is the named package-level function
// pkgpath.name (e.g. "time", "Now").
func IsFuncNamed(fn *types.Func, pkgpath, name string) bool {
	return fn != nil && fn.Name() == name && fn.Pkg() != nil && fn.Pkg().Path() == pkgpath
}

// PathHasSuffix reports whether the import path equals suffix or ends in
// "/"+suffix — the way the passes recognize this repository's packages
// (matching by suffix keeps testdata packages, which mirror real paths
// under a synthetic prefix, in scope).
func PathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// NamedTypePath reports whether t (after pointer indirection) is the named
// type `name` declared in a package whose path ends in pkgSuffix.
func NamedTypePath(t types.Type, pkgSuffix, name string) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return PathHasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// HasMethod reports whether typ has a method with the given name and a
// signature matching check (check may be nil to accept any signature).
// Both value and pointer method sets are consulted.
func HasMethod(typ types.Type, name string, check func(*types.Signature) bool) bool {
	obj, _, _ := types.LookupFieldOrMethod(typ, true, nil, name)
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	if check == nil {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && check(sig)
}

// IsErrorOnlySignature reports whether sig is func() error — the shape of
// Close and Sync.
func IsErrorOnlySignature(sig *types.Signature) bool {
	if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	named, ok := sig.Results().At(0).Type().(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
