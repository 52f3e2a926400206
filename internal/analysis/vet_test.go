package analysis_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
	"repro/internal/analysis/passes/apierr"
	"repro/internal/analysis/passes/closecheck"
	"repro/internal/analysis/passes/ctxfirst"
	"repro/internal/analysis/passes/detparallel"
	"repro/internal/analysis/passes/metricname"
	"repro/internal/analysis/passes/ologonly"
)

// program type-checks every package of the module, once for the three
// gate tests (TestVet here, TestExportedSurface and TestConfigFieldsSet
// beside it).
var program = sync.OnceValues(func() ([]*load.Package, error) {
	return load.Load("../..", "./...")
})

// benchModule type-checks the bench module, the program's caller outside
// the root module, once for the surface and settings rules.
var benchModule = sync.OnceValues(func() ([]*load.Package, error) {
	return load.Load("../../bench", ".")
})

// TestVet is the static gate: the six analyzers over every non-test file
// of the program, with zero findings left standing. A finding is fixed, or
// excused where it stands with //sicklevet:ignore <analyzer> <reason>
// (ignore.go) — and a directive that is malformed, names no analyzer of
// the suite or excuses nothing any more is a finding too.
func TestVet(t *testing.T) {
	pkgs, err := program()
	if err != nil {
		t.Fatal(err)
	}
	suite := []*analysis.Analyzer{
		apierr.Analyzer,
		closecheck.Analyzer,
		ctxfirst.Analyzer,
		detparallel.Analyzer,
		metricname.Analyzer,
		ologonly.Analyzer,
	}
	var findings []string
	for _, p := range pkgs {
		diags, err := analysis.Run(p.Fset, p.Files, p.Types, p.Info, suite...)
		if err != nil {
			t.Fatalf("%s: %v", p.ImportPath, err)
		}
		for _, d := range diags {
			findings = append(findings, fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer))
		}
	}
	if len(findings) > 0 {
		t.Errorf("%d findings:\n  %s", len(findings), strings.Join(findings, "\n  "))
	}
}
