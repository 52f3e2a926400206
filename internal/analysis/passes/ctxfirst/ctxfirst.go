// Package ctxfirst enforces the stack's context-first cancellation
// contract, load-bearing for the serve/shard tiers: cancellation flows from
// the caller, so library code must not mint root contexts, functions that
// take a context take it first, and outbound HTTP requests carry one. The
// bug class is a request whose cancellation and trace stop at a library
// boundary. It caught six library entry points minting
// context.Background() (sickle.Fig6 to Fig9, stream.Run, tune.Search) and
// JobManager.execute and runProtected taking their context second
// (09f8573). No text search can see parameter order.
//
// Three rules:
//
//  1. No context.Background() or context.TODO() outside package main.
//     Libraries receive their context; a Background() call severs the
//     caller's cancellation and trace propagation. Legitimate lifecycle
//     roots (a manager whose context is canceled by its own Stop/Close)
//     annotate the one construction site with
//     //sicklevet:ignore ctxfirst <reason>.
//
//  2. A context.Context parameter must be the first parameter.
//
//  3. http.NewRequest must be http.NewRequestWithContext.
//
// Test files are exempt (the loader never parses them).
package ctxfirst

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the ctxfirst pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxfirst",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	isMain := pass.Pkg.Name() == "main"
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n, isMain)
			case *ast.FuncDecl:
				checkSignature(pass, n.Type)
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					if ft, ok := m.Type.(*ast.FuncType); ok {
						checkSignature(pass, ft)
					}
				}
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, isMain bool) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	switch {
	case analysis.IsFuncNamed(fn, "context", "Background"), analysis.IsFuncNamed(fn, "context", "TODO"):
		if isMain {
			return
		}
		pass.Reportf(call.Pos(),
			"context.%s() severs the caller's cancellation and trace; thread a context.Context parameter instead "+
				"(lifecycle roots: //sicklevet:ignore ctxfirst <reason>)", fn.Name())
	case analysis.IsFuncNamed(fn, "net/http", "NewRequest"):
		pass.Reportf(call.Pos(), "http.NewRequest ignores cancellation; use http.NewRequestWithContext")
	}
}

// checkSignature flags a context.Context parameter that is not first.
func checkSignature(pass *analysis.Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	index := 0
	for _, field := range ft.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(pass.TypesInfo.Types[field.Type].Type) && index > 0 {
			pass.Reportf(field.Pos(), "context.Context must be the first parameter")
			return
		}
		index += n
	}
}

func isContextType(t types.Type) bool {
	return t != nil && analysis.NamedTypePath(t, "context", "Context")
}
