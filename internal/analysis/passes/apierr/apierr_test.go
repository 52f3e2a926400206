package apierr_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/passes/apierr"
)

func TestApierr(t *testing.T) {
	analysistest.Run(t, apierr.Analyzer, "apierr/a")
}
