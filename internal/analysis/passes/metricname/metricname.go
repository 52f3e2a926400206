// Package metricname lints every series registered on the obs metrics
// registry at its source; internal/obs's tests hold the text Render makes
// of them to the exposition format. The bug class is a series nobody can
// find or whose meaning forks: durable's dedup counters were named by
// concatenating a prefix, invisible to grep, until this pass made them the
// constant sickle_dedup_* names (09f8573).
//
// For each call to Counter/Gauge/Histogram/CounterFunc/GaugeFunc/
// GaugeMapFunc on an *obs.Registry:
//
//   - the metric name must be a compile-time string constant (otherwise
//     the name is unlintable and ungreppable);
//   - the name must match sickle(_[a-z0-9]+)+ — the project namespace,
//     lower snake case, no leading/trailing/double underscores;
//   - counters end in _total; histograms end in a unit suffix
//     (_seconds, _bytes, _size, _points or _ratio); gauges must not end
//     in _total (Prometheus conventions, enforced at lint time by CI);
//   - each name is registered at exactly one site. Series identity is
//     the name; two registration sites for one name either collide at
//     runtime (same registry) or silently fork the series' meaning
//     (different registries). The check spans every package analyzed
//     in one process.
package metricname

import (
	"go/ast"
	"go/constant"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the metricname pass.
var Analyzer = &analysis.Analyzer{
	Name: "metricname",
	Run:  run,
}

// sites is the duplicate-registration table: metric name -> its first
// registration site, across every package the process analyzes.
var sites = map[string]string{}

var registerMethods = map[string]string{
	"Counter":      "counter",
	"CounterFunc":  "counter",
	"Gauge":        "gauge",
	"GaugeFunc":    "gauge",
	"GaugeMapFunc": "gauge",
	"Histogram":    "histogram",
}

var nameRe = regexp.MustCompile(`^sickle(_[a-z0-9]+)+$`)

var histogramUnits = []string{"_seconds", "_bytes", "_size", "_points", "_ratio"}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			kind, ok := registerMethods[sel.Sel.Name]
			if !ok || len(call.Args) == 0 {
				return true
			}
			selection, ok := pass.TypesInfo.Selections[sel]
			if !ok || !analysis.NamedTypePath(selection.Recv(), "internal/obs", "Registry") {
				return true
			}
			checkName(pass, call, kind)
			return true
		})
	}
	return nil
}

func checkName(pass *analysis.Pass, call *ast.CallExpr, kind string) {
	arg := call.Args[0]
	tv := pass.TypesInfo.Types[arg]
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(arg.Pos(), "metric name must be a compile-time string constant so sicklevet and grep can see it")
		return
	}
	name := constant.StringVal(tv.Value)

	if !nameRe.MatchString(name) {
		pass.Reportf(arg.Pos(), "metric name %s must match sickle(_[a-z0-9]+)+ (project prefix, lower snake case)", quote(name))
		return
	}

	switch kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			pass.Reportf(arg.Pos(), "counter %s must end in _total (Prometheus counter convention)", quote(name))
		}
	case "histogram":
		unitOK := false
		for _, u := range histogramUnits {
			if strings.HasSuffix(name, u) {
				unitOK = true
				break
			}
		}
		if !unitOK {
			pass.Reportf(arg.Pos(), "histogram %s must end in a unit suffix (%s)", quote(name), strings.Join(histogramUnits, ", "))
		}
	case "gauge":
		if strings.HasSuffix(name, "_total") {
			pass.Reportf(arg.Pos(), "gauge %s must not end in _total (reserved for counters)", quote(name))
		}
	}

	site := pass.Fset.Position(arg.Pos()).String()
	first, dup := sites[name]
	if !dup {
		sites[name] = site
	}
	if dup && first != site {
		pass.Reportf(arg.Pos(), "metric %s already registered at %s; each series has exactly one registration site", quote(name), first)
	}
}

// quote renders a name for a diagnostic message.
func quote(name string) string { return `"` + name + `"` }
