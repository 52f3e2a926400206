package analysis_test

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllow lists what only _test.go files reach and stays exported
// anyway: a symbol ("repro/internal/pkg.Func", "repro/internal/pkg.Type.Method"),
// a whole package (trailing "/") or one file of a package (".go"). Every
// entry carries its reason; an entry that no longer excuses anything fails
// the test, so the list cannot rot. The budget is 8 entries, the count in
// use: a new seam must displace an old one.
var surfaceAllow = map[string]string{
	// Cross-package test seams: another package's tests cannot reach an
	// unexported name, and no program path needs the hook.
	"repro/internal/tensor.SetWorkers":      "the parity and allocation tests of every package whose kernels fan out force a real pool on any core count",
	"repro/internal/tensor.SetParallel":     "the same tests run one code path with and without workers and compare bits",
	"repro/internal/tier.Tier.Handler":      "serve, shard, tier and obs/top tests mount the finished mux under httptest",
	"repro/internal/serve.InProc.Kill":      "shard and obs/top tests crash a replica without draining it",
	"repro/internal/serve.Server.Jobs":      "shard and tier tests park a job slot and list a replica's jobs",
	"repro/internal/obs.ActiveSpan.SpanID":  "serve, tier and train tests check that child spans are parented to this span",
	"repro/internal/analysis/analysistest/": "the harness the four analyzer packages' tests run their testdata through",
	"repro/internal/tensor/pooltest/":       "the goroutine checks tests share: a parity test reached the kernel pool; no goroutine outlived a package's tests",
}

// TestExportedSurface is the surface rule: a function or method exported
// from internal/ is referenced by non-test code somewhere in the program
// (internal/, pkg/, cmd/, examples/ or the bench module). What only tests
// reach is deleted, unexported beside its test, or listed in surfaceAllow
// with a reason. pkg/ is the SDK: its callers live outside the repository,
// so the rule does not govern it.
//
// Functions and concrete method calls are matched by identity. A method is
// also reached when the program calls its name through an interface — that
// is how error, fmt.Stringer, http.Handler and the program's own
// interfaces find their implementations.
func TestExportedSurface(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := program()
	if err != nil {
		t.Fatal(err)
	}
	bench, err := benchModule()
	if err != nil {
		t.Fatal(err)
	}

	type decl struct {
		pos    string // "internal/pkg/file.go:line"
		method string // the bare method name; "" for a function
	}
	var (
		declared  = map[string]decl{} // exported symbol -> where it is declared
		used      = map[string]bool{} // symbols some non-test code names
		ifaceCall = map[string]bool{} // method names called through an interface
	)
	for _, p := range append(bench, pkgs...) {
		governed := strings.HasPrefix(p.ImportPath, "repro/internal/")
		for _, f := range p.Files {
			for _, d := range f.Decls {
				self := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn := p.Info.Defs[fd.Name].(*types.Func)
					self = symbol(fn)
					recv := receiver(fn)
					// A method of an unexported type is not surface.
					if governed && fd.Name.IsExported() && (recv == nil || recv.Exported()) {
						pos := p.Fset.Position(fd.Pos())
						rel, _ := filepath.Rel(root, pos.Filename)
						dc := decl{pos: filepath.ToSlash(rel) + ":" + strconv.Itoa(pos.Line)}
						if recv != nil {
							dc.method = fd.Name.Name
						}
						declared[self] = dc
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := p.Info.Uses[id].(*types.Func)
					if !ok {
						return true
					}
					if s := symbol(fn); s != self { // recursion is not a caller
						used[s] = true
					}
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						ifaceCall[fn.Name()] = true
					}
					return true
				})
			}
		}
	}

	excused := map[string]bool{}
	var orphans []string
	for sym, dc := range declared {
		if used[sym] || ifaceCall[dc.method] {
			continue
		}
		if entry := allowedBy(sym, dc.pos); entry != "" {
			excused[entry] = true
			continue
		}
		orphans = append(orphans, dc.pos+": "+sym)
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d exported functions or methods are reached only by _test.go files — delete each, "+
			"unexport it beside its test, or add it to surfaceAllow with a reason:\n  %s",
			len(orphans), strings.Join(orphans, "\n  "))
	}
	for entry, reason := range surfaceAllow {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("surfaceAllow[%q] has no reason", entry)
		}
		if !excused[entry] {
			t.Errorf("surfaceAllow[%q] excuses nothing any more: remove it", entry)
		}
	}
	if len(surfaceAllow) > 8 {
		t.Errorf("surfaceAllow has %d entries; the budget is 8", len(surfaceAllow))
	}
}

// receiver returns the named type a method is declared on (through a
// pointer receiver too), nil for a function.
func receiver(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	rt := recv.Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	if named, ok := rt.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// symbol names a function "pkg/path.Func" and a method
// "pkg/path.Type.Method". Names, not object identity, because each
// package is checked from source while its importers see export data.
func symbol(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return fn.Name() // error.Error
	}
	name := fn.Name()
	if recv := receiver(fn); recv != nil {
		name = recv.Name() + "." + name
	}
	return fn.Pkg().Path() + "." + name
}

// allowedBy returns the surfaceAllow entry covering sym, declared at pos:
// the symbol itself, its package ("repro/internal/pkg/") or its file
// ("repro/internal/pkg/file.go").
func allowedBy(sym, pos string) string {
	file, _, _ := strings.Cut(pos, ":")
	slash := strings.LastIndexByte(sym, '/')
	pkg := sym[:slash+1+strings.IndexByte(sym[slash+1:], '.')]
	for _, entry := range []string{sym, pkg + "/", "repro/" + file} {
		if _, ok := surfaceAllow[entry]; ok {
			return entry
		}
	}
	return ""
}
