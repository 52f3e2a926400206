// Package detparallel protects the kernel engine's determinism contract
// (PR 3, asserted by internal/tensor's parity tests): every kernel
// produces bit-identical results serial or parallel, because
// tensor.ParallelFor's chunk decomposition depends only on (n, work)
// and each chunk's work is a pure function of its index range.
//
// That contract dies quietly when a chunk body consults anything
// nondeterministic, so inside every function literal passed to
// (*tensor.Pool).ParallelFor this pass bans:
//
//   - time.Now / time.Since / time.Until (wall-clock-dependent values
//     diverge between serial and parallel runs — measure outside the
//     kernel);
//   - math/rand and math/rand/v2 (global or not, the draw order depends
//     on chunk interleaving; use a per-chunk seeded generator derived
//     from the chunk index, constructed outside);
//   - ranging over a map (iteration order differs run to run; iterate a
//     sorted slice).
//
// Nested closures inside the body are included — they run on pool
// workers too.
package detparallel

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the detparallel pass.
var Analyzer = &analysis.Analyzer{
	Name: "detparallel",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isParallelFor(pass, call) || len(call.Args) == 0 {
				return true
			}
			if body, ok := call.Args[len(call.Args)-1].(*ast.FuncLit); ok {
				checkBody(pass, body.Body)
			}
			return true
		})
	}
	return nil
}

// isParallelFor matches (*tensor.Pool).ParallelFor method calls.
func isParallelFor(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "ParallelFor" {
		return false
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	return ok && analysis.NamedTypePath(selection.Recv(), "internal/tensor", "Pool")
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := analysis.CalleeFunc(pass.TypesInfo, n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					pass.Reportf(n.Pos(),
						"time.%s inside a ParallelFor body breaks the serial/parallel parity contract; measure outside the kernel", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				pass.Reportf(n.Pos(),
					"%s.%s inside a ParallelFor body draws in chunk-interleaving order; derive a per-chunk generator from the chunk index outside the kernel",
					fn.Pkg().Name(), fn.Name())
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.Types[n.X].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(),
						"map iteration order inside a ParallelFor body is nondeterministic; iterate a sorted slice instead")
				}
			}
		}
		return true
	})
}
