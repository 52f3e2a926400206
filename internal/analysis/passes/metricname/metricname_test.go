package metricname_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/passes/metricname"
)

func TestMetricname(t *testing.T) {
	analysistest.Run(t, metricname.Analyzer, "metricname/a")
}
