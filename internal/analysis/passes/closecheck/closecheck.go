// Package closecheck reports discarded Close/Sync errors on writable
// files and writers.
//
// The bug class: data is not durable until Close and Sync have returned
// nil, so a write path that drops either error can report success for
// data that never reached the disk. It caught 13 such Close calls on
// error paths in durable, sickle, serve and stream (09f8573), each now an
// acknowledged `_ =` discard. The analyzer flags
//
//	f.Close()        // statement: error silently dropped
//	defer f.Close()  // defer on a write path: error unobservable
//	go f.Close()
//
// when the receiver is writable: any type with a Write, Flush, Sync or
// Append method alongside the called one (io.WriteCloser
// implementations, gzip/bufio writers, record-oriented appenders), or an
// *os.File that was not provably opened read-only (os.Open, or
// os.OpenFile with O_RDONLY). Read-side closers (response bodies,
// os.Open files) are exempt — their Close errors carry no durability
// information.
//
// Accepted idioms, not flagged:
//
//	_ = f.Close()                  // explicit, visible discard (error paths)
//	if err := f.Close(); ... 	   // checked
//	defer f.Close()                // when the same function also checks
//	                               // f.Close() on the success path
//	                               // (the standard double-close idiom)
package closecheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the closecheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "closecheck",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, fn.Body)
				}
				return false // checkFunc walks nested literals itself
			case *ast.FuncLit:
				// Only reached for package-level var initializers; function
				// bodies return false above.
				checkFunc(pass, fn.Body)
				return false
			}
			return true
		})
	}
	return nil
}

// discard is one Close/Sync call whose result is dropped.
type discard struct {
	call    *ast.CallExpr
	method  string
	recv    types.Object // rightmost identifier's object, if any
	defered bool
}

// checkFunc analyzes one function body (nested function literals
// included: a deferred close in a closure still belongs to the
// surrounding write path).
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	readOnly := map[types.Object]bool{}  // files from os.Open / O_RDONLY
	checked := map[types.Object]string{} // object -> method name with a used result
	handled := map[*ast.CallExpr]bool{}  // calls classified by an enclosing statement
	var discards []discard

	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			markReadOnly(pass, s, readOnly)
			// `_ = f.Close()` is an acknowledged discard; any other
			// assignment is a checked use.
			for i, rhs := range s.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				method, recv := closeLike(pass, call)
				if method == "" {
					continue
				}
				handled[call] = true
				if len(s.Lhs) == len(s.Rhs) {
					if id, ok := s.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						continue // acknowledged
					}
				}
				if recv != nil {
					checked[recv] = method
				}
			}
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if method, recv := closeLike(pass, call); method != "" {
					discards = append(discards, discard{call: call, method: method, recv: recv})
				}
			}
		case *ast.DeferStmt:
			if method, recv := closeLike(pass, s.Call); method != "" {
				discards = append(discards, discard{call: s.Call, method: method, recv: recv, defered: true})
			}
		case *ast.GoStmt:
			if method, recv := closeLike(pass, s.Call); method != "" {
				discards = append(discards, discard{call: s.Call, method: method, recv: recv})
			}
		default:
			// Any other appearance of a close-like call (if init, return,
			// argument) is a checked use.
			if call, ok := n.(*ast.CallExpr); ok && !handled[call] {
				if method, recv := closeLike(pass, call); method != "" && recv != nil {
					if !isDiscardedLater(call, discards) {
						checked[recv] = method
					}
				}
			}
		}
		return true
	})

	for _, d := range discards {
		if !writable(pass, d.call, readOnly) {
			continue
		}
		// Double-close idiom: a defer may drop the error when the same
		// function checks the same method on the same receiver.
		if d.defered && d.recv != nil && checked[d.recv] == d.method {
			continue
		}
		pass.Reportf(d.call.Pos(), "%s error discarded on writable file/writer; check it, "+
			"assign to _ to acknowledge, or annotate //sicklevet:ignore closecheck <reason>", d.method)
	}
}

// isDiscardedLater guards against double-recording: ast.Inspect visits the
// ExprStmt before its CallExpr child, so the call is already in discards.
func isDiscardedLater(call *ast.CallExpr, discards []discard) bool {
	for _, d := range discards {
		if d.call == call {
			return true
		}
	}
	return false
}

// closeLike reports the method name ("Close" or "Sync") when call is a
// func() error method invocation of that name, plus the receiver's
// rightmost identifier object for idiom matching.
func closeLike(pass *analysis.Pass, call *ast.CallExpr) (string, types.Object) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	name := sel.Sel.Name
	if name != "Close" && name != "Sync" {
		return "", nil
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return "", nil
	}
	sig, ok := selection.Obj().Type().(*types.Signature)
	if !ok || !analysis.IsErrorOnlySignature(sig) {
		return "", nil
	}
	return name, rightmostObj(pass, sel.X)
}

// rightmostObj resolves the identifier a receiver expression bottoms out
// in: f -> f's var, s.file -> the file field, (f) -> f.
func rightmostObj(pass *analysis.Pass, expr ast.Expr) types.Object {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[e.Sel]
	}
	return nil
}

// writable decides whether the receiver of a close-like call is on the
// write side: has a Write method, or is an *os.File not proven read-only.
func writable(pass *analysis.Pass, call *ast.CallExpr, readOnly map[types.Object]bool) bool {
	sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	recvType := pass.TypesInfo.Types[sel.X].Type
	if recvType == nil {
		return false
	}
	if analysis.NamedTypePath(recvType, "os", "File") {
		obj := rightmostObj(pass, sel.X)
		return obj == nil || !readOnly[obj]
	}
	// Write catches io.WriteCloser shapes; Flush/Sync/Append catch
	// buffered or record-oriented writers (durable.Log,
	// sickle.ShardAppender) that expose records, not bytes.
	return analysis.HasMethod(recvType, "Write", nil) ||
		analysis.HasMethod(recvType, "Flush", nil) ||
		analysis.HasMethod(recvType, "Sync", nil) ||
		analysis.HasMethod(recvType, "Append", nil)
}

// markReadOnly records `f, err := os.Open(...)` / os.OpenFile with a
// constant O_RDONLY flag as read-only file objects.
func markReadOnly(pass *analysis.Pass, s *ast.AssignStmt, readOnly map[types.Object]bool) {
	if len(s.Rhs) != 1 {
		return
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	switch {
	case analysis.IsFuncNamed(fn, "os", "Open"):
	case analysis.IsFuncNamed(fn, "os", "OpenFile") && len(call.Args) >= 2:
		tv := pass.TypesInfo.Types[call.Args[1]]
		// os.O_RDONLY is 0; any write or create bit makes the flag nonzero.
		if tv.Value == nil || constant.Compare(tv.Value, token.NEQ, constant.MakeInt64(0)) {
			return
		}
	default:
		return
	}
	if len(s.Lhs) == 0 {
		return
	}
	if id, ok := s.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
		if obj := objOf(pass, id); obj != nil {
			readOnly[obj] = true
		}
	}
}

func objOf(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}
