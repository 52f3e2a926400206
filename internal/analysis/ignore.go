package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// The escape hatch. A finding is deliberate when the code carries
//
//	//sicklevet:ignore <analyzer> <reason>
//
// on the same line as the diagnostic or on the line directly above it.
// The reason is mandatory: a suppression that cannot say why it exists is
// itself a diagnostic, as is any other //sicklevet: form. So is one that
// cannot be doing its job — a directive naming an analyzer outside the run
// (a typo suppresses nothing, silently) or one that suppressed no finding
// (what it excused was fixed) — which keeps the hatch from rotting.

const (
	directivePrefix = "//sicklevet:"
	// directiveChecker is the Analyzer name on diagnostics about the
	// directives themselves.
	directiveChecker = "sicklevet"
)

// ignoreDirective is one parsed suppression.
type ignoreDirective struct {
	pos      token.Position
	analyzer string
	used     bool // suppressed at least one finding
}

// ignoreSet holds every directive of one package's files, plus a
// diagnostic per malformed one.
type ignoreSet struct {
	directives []*ignoreDirective
	malformed  []Diagnostic
}

// parseIgnores scans the comments of files for sicklevet directives.
func parseIgnores(fset *token.FileSet, files []*ast.File) *ignoreSet {
	s := &ignoreSet{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				s.parse(fset.Position(c.Pos()), c.Text)
			}
		}
	}
	return s
}

func (s *ignoreSet) parse(pos token.Position, text string) {
	text, ok := strings.CutPrefix(text, directivePrefix)
	if !ok {
		return
	}
	// "ignore", the analyzer, then the reason.
	fields := strings.Fields(text)
	if len(fields) < 3 || fields[0] != "ignore" {
		s.malformed = append(s.malformed, Diagnostic{
			Pos:      pos,
			Analyzer: directiveChecker,
			Message: "malformed sicklevet directive: want " +
				"`//sicklevet:ignore <analyzer> <reason>` (the reason is mandatory)",
		})
		return
	}
	s.directives = append(s.directives, &ignoreDirective{pos: pos, analyzer: fields[1]})
}

// suppressed reports whether a finding of the named analyzer at pos is
// covered by a directive, and marks every directive that covers it used.
func (s *ignoreSet) suppressed(analyzer string, pos token.Position) bool {
	covered := false
	for _, d := range s.directives {
		if d.pos.Filename == pos.Filename && d.analyzer == analyzer &&
			(d.pos.Line == pos.Line || d.pos.Line == pos.Line-1) {
			d.used, covered = true, true
		}
	}
	return covered
}

// stale returns a diagnostic for every directive naming an analyzer that
// is not one of analyzers, or that suppressed nothing they reported. Call
// it after every analyzer has run.
func (s *ignoreSet) stale(analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, d := range s.directives {
		var msg string
		switch {
		case !slices.ContainsFunc(analyzers, func(a *Analyzer) bool { return a.Name == d.analyzer }):
			msg = fmt.Sprintf("sicklevet directive names %q, which is not an analyzer of this run", d.analyzer)
		case !d.used:
			msg = "sicklevet directive suppresses nothing: remove it"
		default:
			continue
		}
		out = append(out, Diagnostic{Pos: d.pos, Analyzer: directiveChecker, Message: msg})
	}
	return out
}
