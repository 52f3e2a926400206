// Package load turns `go list` output into type-checked packages for the
// static gate (TestVet, TestExportedSurface and the analyzers' testdata
// harness), using only the standard library. It shells out to the go
// command once per Load call:
//
//	go list -export -json -deps -- <patterns>
//
// which compiles (or reuses from the build cache) export data for every
// listed package, then type-checks the matched packages from source with
// the stdlib gc importer reading that export data.
package load

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
	"runtime"
	"strings"
)

// Package is one type-checked target package.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	// Files are the parsed non-test GoFiles, in go list order.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
}

// Load lists patterns in dir and type-checks every matched (non-DepOnly)
// package, in go list's order (dependencies first); the first parse or
// type error fails the load. A pattern may name a directory `./...` skips,
// such as a package under testdata/. CGO is disabled so the file sets are
// pure Go.
func Load(dir string, patterns ...string) ([]*Package, error) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-json", "-deps", "--"}, patterns...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := map[string]string{} // import path -> compiled export data
	var targets []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		exports[lp.ImportPath] = lp.Export
		if !lp.DepOnly {
			targets = append(targets, lp)
		}
	}

	fset := token.NewFileSet()
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if exports[path] == "" {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(exports[path])
		}),
		Sizes: types.SizesFor("gc", runtime.GOARCH),
	}
	var pkgs []*Package
	for _, t := range targets {
		pkg := &Package{ImportPath: t.ImportPath, Fset: fset, Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			pkg.Files = append(pkg.Files, f)
		}
		if pkg.Types, err = conf.Check(t.ImportPath, fset, pkg.Files, pkg.Info); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
