package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"
)

// TestRun drives the driver over small in-memory packages with two
// syntax-only analyzers (so no type information is needed): "calls"
// reports every call, "funcs" every function declaration's name.
func TestRun(t *testing.T) {
	inspector := func(name string, visit func(*Pass, ast.Node)) *Analyzer {
		return &Analyzer{Name: name, Run: func(p *Pass) error {
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool { visit(p, n); return true })
			}
			return nil
		}}
	}
	calls := inspector("calls", func(p *Pass, n ast.Node) {
		if c, ok := n.(*ast.CallExpr); ok {
			p.Reportf(c.Pos(), "call")
		}
	})
	funcs := inspector("funcs", func(p *Pass, n ast.Node) {
		if d, ok := n.(*ast.FuncDecl); ok {
			p.Reportf(d.Name.Pos(), "func %s", d.Name.Name)
		}
	})
	broken := &Analyzer{Name: "broken", Run: func(*Pass) error { return errors.New("boom") }}

	type file struct{ name, src string }
	for _, tc := range []struct {
		name      string
		files     []file
		analyzers []*Analyzer
		want      []string // "file:line:col analyzer", in order
		wantErr   string
	}{
		{
			name: "two analyzers, sorted by file, line, column",
			files: []file{
				{"z.go", "package p\n\nfunc f() { g(); h() }\n"},
				{"a.go", "package p\n\nfunc g() {}\nfunc h() {}\n"},
			},
			analyzers: []*Analyzer{calls, funcs},
			want:      []string{"a.go:3:6 funcs", "a.go:4:6 funcs", "z.go:3:6 funcs", "z.go:3:12 calls", "z.go:3:17 calls"},
		},
		{
			name:      "a suppressed finding is absent, its neighbours are not",
			files:     []file{{"a.go", "package p\n\nfunc f() {\n\t//sicklevet:ignore calls the reason\n\tg()\n\th()\n}\n"}},
			analyzers: []*Analyzer{calls, funcs},
			want:      []string{"a.go:3:6 funcs", "a.go:6:2 calls"},
		},
		{
			name:      "a malformed directive is reported once, and suppresses nothing",
			files:     []file{{"a.go", "package p\n\nfunc f() {\n\t//sicklevet:ignore calls\n\tg()\n}\n"}},
			analyzers: []*Analyzer{calls, funcs},
			want:      []string{"a.go:3:6 funcs", "a.go:4:2 sicklevet", "a.go:5:2 calls"},
		},
		{
			name:      "a directive with nothing left to suppress is reported where it stands",
			files:     []file{{"a.go", "package p\n\n//sicklevet:ignore calls the call was removed\nfunc f() {}\n"}},
			analyzers: []*Analyzer{calls, funcs},
			want:      []string{"a.go:3:1 sicklevet", "a.go:4:6 funcs"},
		},
		{
			name:      "an analyzer's error is the run's error",
			files:     []file{{"a.go", "package p\n\nfunc f() {}\n"}},
			analyzers: []*Analyzer{funcs, broken},
			wantErr:   "analyzer broken: boom",
		},
	} {
		fset := token.NewFileSet()
		var files []*ast.File
		for _, f := range tc.files {
			parsed, err := parser.ParseFile(fset, f.name, f.src, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, parsed)
		}
		diags, err := Run(fset, files, nil, nil, tc.analyzers...)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		var got []string
		for _, d := range diags {
			got = append(got, fmt.Sprintf("%s %s", d.Pos, d.Analyzer))
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}
