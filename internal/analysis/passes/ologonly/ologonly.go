// Package ologonly keeps ad-hoc printing out of the long-running stack.
//
// All operational output of the four long-running binaries (sickle-serve,
// sickle-shard, sickle-stream, sickle-train) and their libraries goes
// through the tier's *slog.Logger, built by internal/obs/log from
// -log-level and -log-json, so those flags govern everything the process
// emits. A stray log.Printf, fmt.Println or slog.Info bypasses leveling,
// JSON mode, and the warn/error rate limiter.
//
// Within the long-running packages (serve, shard, tier, stream, train,
// durable, minimpi, obs and its subpackages except the terminal renderer
// obs/top, and the four binaries) the pass bans:
//
//   - the standard "log" package;
//   - slog's package-level output (slog.Debug/Info/Warn/Error/Log/LogAttrs,
//     their …Context forms) and slog.Default — they write through the
//     process default logger, not the one the flags built;
//   - fmt.Print/Printf/Println and the print/println builtins — the
//     implicit-stdout writers.
//
// fmt.Fprintf to an explicit writer stays legal everywhere, short-lived
// CLIs (sickle-bench, sickle-gendata, examples/) are out of scope, and a
// long-running CLI's deliberate result summary annotates with
// //sicklevet:file-ignore ologonly <reason>. The name predates the move to
// log/slog; it stays so existing directives still resolve.
package ologonly

import (
	"go/ast"
	"go/types"
	"slices"

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

// slogDefault are log/slog's package-level functions that reach the
// process default logger.
var slogDefault = map[string]bool{
	"Debug": true, "Info": true, "Warn": true, "Error": true, "Log": true, "LogAttrs": true,
	"DebugContext": true, "InfoContext": true, "WarnContext": true, "ErrorContext": true,
	"Default": true,
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if !slices.ContainsFunc(longRunning, func(suffix string) bool { return analysis.PathHasSuffix(path, suffix) }) {
		return nil
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
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); builtin &&
						(id.Name == "print" || id.Name == "println") {
						pass.Reportf(call.Pos(), "builtin %s writes to stderr unstructured; use the tier's *slog.Logger", id.Name)
					}
				}
				return true
			}
			if fn.Pkg() == nil {
				return true
			}
			switch pkg := fn.Pkg().Path(); {
			case pkg == "log":
				pass.Reportf(call.Pos(),
					"standard log package bypasses leveling and rate limiting; use the tier's *slog.Logger")
			case pkg == "log/slog" && fn.Signature().Recv() == nil && slogDefault[fn.Name()]:
				pass.Reportf(call.Pos(),
					"slog.%s writes through the process default logger, bypassing -log-level, -log-json "+
						"and the rate limit; use the tier's *slog.Logger", fn.Name())
			case pkg == "fmt" && printFuncs[fn.Name()]:
				pass.Reportf(call.Pos(),
					"fmt.%s writes to process stdout; use the tier's *slog.Logger or fmt.Fprintf to an explicit writer "+
						"(CLI result output: //sicklevet:file-ignore ologonly <reason>)", fn.Name())
			}
			return true
		})
	}
	return nil
}
