// Package ologonly keeps ad-hoc printing out of the long-running stack.
//
// PR 6 routed all operational output of the four long-running binaries
// (sickle-serve, sickle-shard, sickle-stream, sickle-train) and their
// libraries through the structured olog logger, so that -log-level and
// -log-json actually govern everything the process emits. A stray
// log.Printf or fmt.Println bypasses leveling, JSON mode, and the
// warn/error rate limiter.
//
// Within the long-running packages (serve, shard, tier, stream, train,
// durable, minimpi, obs and its subpackages except the terminal renderer
// obs/top, and the four binaries) the pass bans:
//
//   - the standard "log" package (the project logger is
//     internal/obs/log);
//   - fmt.Print/Printf/Println and the print/println builtins — the
//     implicit-stdout writers.
//
// fmt.Fprintf to an explicit writer stays legal everywhere, short-lived
// CLIs (sickle-bench, sickle-gendata, examples/) are out of scope, and a
// long-running CLI's deliberate result summary annotates with
// //sicklevet:file-ignore ologonly <reason>.
package ologonly

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the ologonly pass.
var Analyzer = &analysis.Analyzer{
	Name: "ologonly",
	Run:  run,
}

// longRunning are the import-path suffixes where implicit-stdout printing
// is banned. internal/obs/top is deliberately absent: it renders the
// terminal console.
var longRunning = []string{
	"internal/serve", "internal/shard", "internal/tier", "internal/stream", "internal/train",
	"internal/durable", "internal/minimpi",
	"internal/obs", "internal/obs/log", "internal/obs/slo", "internal/obs/events", "internal/obs/tsdb",
	"cmd/sickle-serve", "cmd/sickle-shard", "cmd/sickle-stream", "cmd/sickle-train",
}

var printFuncs = map[string]bool{"Print": true, "Printf": true, "Println": true}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	inLongRunning := false
	for _, suffix := range longRunning {
		if analysis.PathHasSuffix(path, suffix) {
			inLongRunning = true
			break
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if fn == nil {
				// The print/println builtins resolve to *types.Builtin,
				// not *types.Func.
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && inLongRunning {
					if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); builtin &&
						(id.Name == "print" || id.Name == "println") {
						pass.Reportf(call.Pos(), "builtin %s writes to stderr unstructured; use the olog logger", id.Name)
					}
				}
				return true
			}
			if inLongRunning && fn.Pkg() != nil && fn.Pkg().Path() == "log" {
				pass.Reportf(call.Pos(),
					"standard log package bypasses olog leveling and rate limiting; use internal/obs/log")
				return true
			}
			if inLongRunning && analysis.IsFuncNamed(fn, "fmt", fn.Name()) && printFuncs[fn.Name()] {
				pass.Reportf(call.Pos(),
					"fmt.%s writes to process stdout; use the olog logger or fmt.Fprintf to an explicit writer "+
						"(CLI result output: //sicklevet:file-ignore ologonly <reason>)", fn.Name())
			}
			return true
		})
	}
	return nil
}
