// Package apierr enforces the pkg/api error contract: every failure that
// crosses the HTTP boundary is a typed *api.Error carrying a code from the
// registered code↔status table, so clients can branch on Code and the
// envelope renderer can map it to a status. The bug class it prevents: a
// naked fmt.Errorf born inside a handler reaches the wire as a generic 500
// with an unclassifiable message.
//
// It has never caught program code: the program's findings were all fixed
// in 09f8573, and none of them was apierr's. It stays because nothing else
// checks the errors a handler makes; tier's FuzzDecodeBody covers only the
// decode boundary in front of it.
//
// Two rules:
//
//  1. Inside HTTP handler functions — any function or closure whose
//     parameters include http.ResponseWriter or *http.Request — errors
//     must not be constructed with fmt.Errorf or errors.New; use
//     api.Errorf with a registered code.
//
//  2. Everywhere outside pkg/api itself, an api.ErrorCode may only be
//     named via its registered constants: a string literal converted or
//     assigned to ErrorCode whose value is not in the registered table
//     (the exported CodeXxx constants) bypasses the code↔status mapping.
package apierr

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"

	"repro/internal/analysis"
)

// Analyzer is the apierr pass.
var Analyzer = &analysis.Analyzer{
	Name: "apierr",
	Run:  run,
}

const apiPathSuffix = "pkg/api"

func run(pass *analysis.Pass) error {
	inAPI := analysis.PathHasSuffix(pass.Pkg.Path(), apiPathSuffix)
	// Literals already validated through the explicit-conversion case;
	// ast.Inspect visits the parent CallExpr first, and the conversion
	// records the converted type on the literal too, which would report
	// the same literal twice.
	converted := map[*ast.BasicLit]bool{}
	for _, file := range pass.Files {
		apiName := apiImportName(file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil && isHandlerSignature(pass, n.Type) {
					checkHandlerBody(pass, n.Body, apiName)
					return false
				}
			case *ast.FuncLit:
				if isHandlerSignature(pass, n.Type) {
					checkHandlerBody(pass, n.Body, apiName)
					return false
				}
			case *ast.CallExpr:
				// Explicit conversion form: api.ErrorCode("...").
				if !inAPI && len(n.Args) == 1 {
					if tv, ok := pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() {
						if lit, ok := ast.Unparen(n.Args[0]).(*ast.BasicLit); ok {
							converted[lit] = true
							checkCodeValue(pass, lit, tv.Type)
						}
					}
				}
			case *ast.BasicLit:
				if !inAPI && !converted[n] {
					checkCodeLiteral(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

// isHandlerSignature reports whether the function's parameters include
// net/http's ResponseWriter or *Request.
func isHandlerSignature(pass *analysis.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		t := pass.TypesInfo.Types[field.Type].Type
		if t == nil {
			continue
		}
		if analysis.NamedTypePath(t, "net/http", "Request") {
			return true
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Name() == "ResponseWriter" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http" {
				return true
			}
		}
	}
	return false
}

// checkHandlerBody flags untyped error construction inside a handler.
// Nested non-handler closures are still handler code — they run on the
// request path — so the whole body is walked.
func checkHandlerBody(pass *analysis.Pass, body *ast.BlockStmt, apiName string) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		switch {
		case analysis.IsFuncNamed(fn, "fmt", "Errorf"):
			pass.Reportf(call.Pos(),
				"fmt.Errorf in an HTTP handler reaches the wire untyped; use %s.Errorf with a registered code", apiName)
		case analysis.IsFuncNamed(fn, "errors", "New"):
			pass.Reportf(call.Pos(),
				"errors.New in an HTTP handler reaches the wire untyped; use %s.Errorf with a registered code", apiName)
		}
		return true
	})
}

// checkCodeLiteral flags string literals implicitly typed as
// api.ErrorCode (assignments, composite literal fields, comparisons)
// whose value is not a registered code constant.
func checkCodeLiteral(pass *analysis.Pass, lit *ast.BasicLit) {
	if lit.Kind != token.STRING {
		return
	}
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	checkCodeValue(pass, lit, tv.Type)
}

// checkCodeValue validates one string literal against the registered
// ErrorCode table when typ is pkg/api's ErrorCode.
func checkCodeValue(pass *analysis.Pass, lit *ast.BasicLit, typ types.Type) {
	named, ok := typ.(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if obj.Name() != "ErrorCode" || obj.Pkg() == nil || !analysis.PathHasSuffix(obj.Pkg().Path(), apiPathSuffix) {
		return
	}
	value, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	// "" is the unset sentinel (an envelope with no code), not a wire
	// code; comparisons against it are legitimate.
	if value == "" || registeredCodes(obj.Pkg())[value] {
		return
	}
	pass.Reportf(lit.Pos(),
		"%q is not a registered api.ErrorCode; use one of the exported Code constants so the code↔status table stays total", value)
}

// registeredCodes enumerates the exported ErrorCode constants of the api
// package — the single source of truth for the wire code table.
func registeredCodes(apiPkg *types.Package) map[string]bool {
	codes := map[string]bool{}
	scope := apiPkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !c.Exported() {
			continue
		}
		if named, ok := c.Type().(*types.Named); ok && named.Obj().Name() == "ErrorCode" {
			codes[constant.StringVal(c.Val())] = true
		}
	}
	return codes
}

// apiImportName returns the file's local name for the repro/pkg/api
// import ("api" unless renamed), for the diagnostics to spell.
func apiImportName(file *ast.File) string {
	for _, imp := range file.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if analysis.PathHasSuffix(path, apiPathSuffix) && imp.Name != nil {
			return imp.Name.Name
		}
	}
	return "api"
}
