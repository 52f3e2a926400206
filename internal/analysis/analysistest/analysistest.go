// Package analysistest runs an analyzer over a testdata package and
// checks what it reports against expectations written in the source.
//
// Test packages live under <analyzer>/testdata/src/<pkgpath>/, and the
// package's import path ends in <pkgpath>, so path-scoped analyzers can be
// exercised by mirroring real layouts (e.g. testdata/src/repro/internal/serve).
// Files may import standard library packages and the real repro/...
// packages: the package is loaded like any other, through load.Load.
//
// Expected findings are declared in the source with trailing comments:
//
//	f.Close() // want `Close error discarded`
//
// Each backquoted or double-quoted Go string after `want` is a regular
// expression; the line must produce exactly that many diagnostics, each
// matching its expression (order-insensitively). Lines without a want
// comment must produce none — so a //sicklevet:ignore directive is tested
// by annotating a violation and omitting the want, and one that is
// malformed, names another analyzer or suppresses nothing fails the test.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// Run analyzes the package at testdata/src/<pkgpath> (relative to the
// calling test's directory) and checks diagnostics against want comments.
func Run(t *testing.T, a *analysis.Analyzer, pkgpath string) {
	t.Helper()
	pkgs, err := load.Load(".", "./testdata/src/"+pkgpath)
	if err != nil {
		t.Fatalf("loading testdata package: %v", err)
	}
	pkg := pkgs[0]
	diags, err := analysis.Run(pkg.Fset, pkg.Files, pkg.Types, pkg.Info, a)
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, pkg.Fset, pkg.Files, diags)
}

// expectation is one want regex at a line.
type expectation struct {
	rx      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("// want (.*)$")

// checkWants matches diagnostics against want comments line by line.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	wants := map[string][]*expectation{} // "file:line" -> expectations
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, pat := range parseWantPatterns(t, pos, m[1]) {
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants[key] = append(wants[key], &expectation{rx: rx})
				}
			}
		}
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		for _, exp := range wants[key] {
			if !exp.matched && exp.rx.MatchString(d.Message) {
				exp.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
	var keys []string
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, exp := range wants[k] {
			if !exp.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", k, exp.rx)
			}
		}
	}
}

// parseWantPatterns splits `"rx" "rx2"` / backquoted forms into patterns.
func parseWantPatterns(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		var quote byte = s[0]
		if quote != '"' && quote != '`' {
			t.Fatalf("%s: malformed want comment (expected quoted regexp): %s", pos, s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			t.Fatalf("%s: unterminated want pattern: %s", pos, s)
		}
		raw := s[:end+2]
		pat, err := strconv.Unquote(raw)
		if err != nil {
			t.Fatalf("%s: bad want pattern %s: %v", pos, raw, err)
		}
		pats = append(pats, pat)
		s = strings.TrimSpace(s[end+2:])
	}
	return pats
}
