package closecheck_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/passes/closecheck"
)

func TestClosecheck(t *testing.T) {
	analysistest.Run(t, closecheck.Analyzer, "closecheck/a")
}
