package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseSrc(t *testing.T, src string) *ignoreSet {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return parseIgnores(fset, []*ast.File{f})
}

// at is a position on the given 1-based line of x.go.
func at(line int) token.Position { return token.Position{Filename: "x.go", Line: line, Column: 1} }

func TestLineDirectiveScope(t *testing.T) {
	s := parseSrc(t, `package p

func f() {
	//sicklevet:ignore closecheck error path
	g()
	g()
}
`)
	if !s.suppressed("closecheck", at(4)) {
		t.Error("directive should cover its own line")
	}
	if !s.suppressed("closecheck", at(5)) {
		t.Error("directive should cover the next line")
	}
	if s.suppressed("closecheck", at(6)) {
		t.Error("directive must not cover two lines down")
	}
	if s.suppressed("ctxfirst", at(5)) {
		t.Error("directive names closecheck only")
	}
	if s.suppressed("closecheck", token.Position{Filename: "y.go", Line: 5}) {
		t.Error("directive must not cover another file")
	}
	if len(s.malformed) != 0 {
		t.Errorf("unexpected malformed: %v", s.malformed)
	}
}

// TestMissingReasonIsMalformed: a directive without a reason, and any
// //sicklevet: form other than ignore, suppresses nothing and is reported.
func TestMissingReasonIsMalformed(t *testing.T) {
	s := parseSrc(t, `package p

//sicklevet:ignore closecheck
var x = 1

//sicklevet:file-ignore closecheck a whole file
var y = 2
`)
	if len(s.malformed) != 2 || len(s.directives) != 0 {
		t.Fatalf("want 2 malformed directives and none parsed, got %d and %d", len(s.malformed), len(s.directives))
	}
}

// TestStaleDirectives: the hatch cannot rot. A directive is a diagnostic at
// its own line when it names an analyzer outside the run (the typo that
// suppresses nothing) or when nothing it names reported under it (the
// finding it excused was fixed); a live one is silent.
func TestStaleDirectives(t *testing.T) {
	run := []*Analyzer{{Name: "closecheck"}, {Name: "ctxfirst"}}
	for _, tc := range []struct {
		name, directive string
		findings        []string // analyzers reporting on the line below the directive
		want            []string // a substring of each diagnostic, in order
	}{
		{"live", "//sicklevet:ignore ctxfirst lifecycle root", []string{"ctxfirst"}, nil},
		{"typo", "//sicklevet:ignore ctxfrist a typo", []string{"ctxfirst"}, []string{`names "ctxfrist"`}},
		{"a list is not a name", "//sicklevet:ignore closecheck,ctxfirst why", []string{"ctxfirst"}, []string{`names "closecheck,ctxfirst"`}},
		{"analyzer outside the run", "//sicklevet:ignore apierr result output", nil, []string{`names "apierr"`}},
		{"finding fixed", "//sicklevet:ignore ctxfirst lifecycle root", nil, []string{"suppresses nothing"}},
		{"another analyzer's finding", "//sicklevet:ignore ctxfirst lifecycle root", []string{"closecheck"}, []string{"suppresses nothing"}},
	} {
		s := parseSrc(t, "package p\n\n"+tc.directive+"\nvar x = 1\n")
		for _, a := range tc.findings {
			s.suppressed(a, at(4))
		}
		got := s.stale(run)
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d diagnostics %v, want %d", tc.name, len(got), got, len(tc.want))
			continue
		}
		for i, d := range got {
			if !strings.Contains(d.Message, tc.want[i]) || d.Pos.Line != 3 || d.Analyzer != directiveChecker {
				t.Errorf("%s: got %+v, want %q at line 3 from %s", tc.name, d, tc.want[i], directiveChecker)
			}
		}
	}
}
