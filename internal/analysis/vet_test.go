package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
	"repro/internal/analysis/passes/apierr"
	"repro/internal/analysis/passes/closecheck"
	"repro/internal/analysis/passes/ctxfirst"
	"repro/internal/analysis/passes/metricname"
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

// TestVet is the static gate: the four analyzers over every non-test file
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
		metricname.Analyzer,
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

// longRunning are the directories, from the module root, of the serve and
// shard binaries and of the libraries the four long-running binaries run.
// What they emit goes through the tier's *slog.Logger, so -log-level,
// -log-json and the warn/error rate limit govern all of it. The
// sickle-stream and sickle-train mains print their result summary and are
// left out, as is obs/top, the terminal console.
var longRunning = []string{
	"cmd/sickle-serve", "cmd/sickle-shard",
	"internal/serve", "internal/shard", "internal/tier", "internal/stream", "internal/train",
	"internal/durable", "internal/minimpi",
	"internal/obs", "internal/obs/log", "internal/obs/slo", "internal/obs/events", "internal/obs/tsdb",
}

// strayOutput matches a line of Go that writes around that logger: an
// import of "log", fmt.Print*, slog's package-level output or slog.Default,
// and the print/println builtins. fmt.Fprint* to an explicit writer stays.
var strayOutput = regexp.MustCompile(`^\s*(import\s+)?(\w+\s+)?"log"$|\bfmt\.Print(f|ln)?\(|` +
	`\bslog\.(Debug|Info|Warn|Error|Log|LogAttrs)(Context)?\(|\bslog\.Default\(|(^|[^.\w])print(ln)?\(`)

// TestNoStrayOutput is the text check on the long-running stack: no
// non-comment line of a non-test file there matches strayOutput.
func TestNoStrayOutput(t *testing.T) {
	for line, stray := range map[string]bool{
		`import "log"`: true, `	stdlog "log"`: true, `fmt.Println(x)`: true, `slog.InfoContext(ctx, "m")`: true,
		`l := slog.Default()`: true, `println(1)`: true,
		`	"log/slog"`: false, `fmt.Fprintf(w, "x")`: false, `logger.Info("m")`: false, `slog.String("k", v)`: false,
	} {
		if strayOutput.MatchString(line) != stray {
			t.Errorf("strayOutput matches %q: %v, want %v", line, !stray, stray)
		}
	}
	for _, dir := range longRunning {
		files, err := filepath.Glob(filepath.Join("../..", dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				if !strings.HasPrefix(strings.TrimSpace(line), "//") && strayOutput.MatchString(line) {
					t.Errorf("%s:%d: %s — write through the tier's *slog.Logger, or fmt.Fprint* to an explicit writer",
						filepath.Join(dir, filepath.Base(name)), i+1, strings.TrimSpace(line))
				}
			}
		}
	}
}
