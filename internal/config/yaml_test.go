package config

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sampling"
)

const sampleCase = `
# SST-P1F4 case, mirroring the paper's Appendix B example.
shared:
  dims: 3
  dtype: sst-binary
  input_vars: [u, v, w, r]
  output_vars: p
  cluster_var: pv
  nx: 514
  ny: 512
  nz: 256
  gravity: z
  fileprefix: "SST-P1-H{hypercubes}"

subsample:
  hypercubes: maxent
  num_hypercubes: 32
  method: maxent
  path: /path/to/raw_data/
  num_samples: 3277
  num_clusters: 20
  nxsl: 32
  nysl: 32
  nzsl: 32

train:
  epochs: 1000
  batch: 16
  target: p_full
  window: 1
  arch: MLP_transformer
  sequence: true
`

func TestParseYAMLBasics(t *testing.T) {
	m, err := ParseYAML(sampleCase)
	if err != nil {
		t.Fatal(err)
	}
	shared := m.GetMap("shared")
	if shared.GetInt("dims", 0) != 3 {
		t.Fatalf("dims = %v", shared["dims"])
	}
	if shared.GetString("dtype", "") != "sst-binary" {
		t.Fatalf("dtype = %v", shared["dtype"])
	}
	if got, _ := shared["input_vars"].([]any); len(got) != 4 || got[3] != "r" {
		t.Fatalf("input_vars = %v", shared["input_vars"])
	}
	if shared.GetString("fileprefix", "") != "SST-P1-H{hypercubes}" {
		t.Fatalf("fileprefix = %v", shared["fileprefix"])
	}
	if m.GetMap("train")["sequence"] != true {
		t.Fatal("sequence = false")
	}
}

func TestParseScalarTypes(t *testing.T) {
	m, err := ParseYAML(`
a: 42
b: 3.14
c: true
d: hello
e: "quoted string"
f: null
g: -7
h: 1e-3
`)
	if err != nil {
		t.Fatal(err)
	}
	if m["a"].(int64) != 42 || m["g"].(int64) != -7 {
		t.Fatalf("ints: %v %v", m["a"], m["g"])
	}
	if m["b"].(float64) != 3.14 || m["h"].(float64) != 1e-3 {
		t.Fatalf("floats: %v %v", m["b"], m["h"])
	}
	if m["c"].(bool) != true {
		t.Fatalf("bool: %v", m["c"])
	}
	if m["d"].(string) != "hello" || m["e"].(string) != "quoted string" {
		t.Fatalf("strings: %v %v", m["d"], m["e"])
	}
	if m["f"] != nil {
		t.Fatalf("null: %v", m["f"])
	}
}

func TestParseDashList(t *testing.T) {
	m, err := ParseYAML(`
cases:
  - alpha
  - beta
  - 3
`)
	if err != nil {
		t.Fatal(err)
	}
	l := m["cases"].([]any)
	if len(l) != 3 || l[0] != "alpha" || l[2].(int64) != 3 {
		t.Fatalf("list = %v", l)
	}
}

func TestParseDeepNesting(t *testing.T) {
	m, err := ParseYAML(`
a:
  b:
    c: 1
  d: 2
e: 3
`)
	if err != nil {
		t.Fatal(err)
	}
	if m.GetMap("a").GetMap("b").GetInt("c", 0) != 1 {
		t.Fatal("deep value lost")
	}
	if m.GetMap("a").GetInt("d", 0) != 2 || m.GetInt("e", 0) != 3 {
		t.Fatal("sibling values lost")
	}
}

func TestParseComments(t *testing.T) {
	m, err := ParseYAML(`
a: 1  # trailing comment
# full-line comment
b: "text # not a comment"
`)
	if err != nil {
		t.Fatal(err)
	}
	if m.GetInt("a", 0) != 1 {
		t.Fatal("trailing comment broke value")
	}
	if m.GetString("b", "") != "text # not a comment" {
		t.Fatalf("quoted # mishandled: %v", m["b"])
	}
}

func TestTabsRejected(t *testing.T) {
	if _, err := ParseYAML("a:\n\tb: 1\n"); err == nil {
		t.Fatal("expected error for tab indentation")
	}
}

func TestMissingColonRejected(t *testing.T) {
	if _, err := ParseYAML("just a line\n"); err == nil {
		t.Fatal("expected error for line without colon")
	}
}

func TestGetDefaults(t *testing.T) {
	m := Map{}
	if m.GetInt("x", 7) != 7 || m.GetString("y", "d") != "d" {
		t.Fatal("defaults not honored")
	}
	if len(m.GetMap("missing")) != 0 {
		t.Fatal("missing map should be empty")
	}
}

func TestParseCaseFull(t *testing.T) {
	path := filepath.Join(t.TempDir(), "case.yaml")
	if err := os.WriteFile(path, []byte(sampleCase+"  seed: 7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPipeline(path)
	if err != nil {
		t.Fatal(err)
	}
	want := sampling.PipelineConfig{Hypercubes: "maxent", Method: "maxent", NumHypercubes: 32,
		NumSamples: 3277, NumClusters: 20, CubeSx: 32, CubeSy: 32, CubeSz: 32, Seed: 7}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pipeline = %+v, want %+v", got, want)
	}
	// An empty subsample section takes the artifact's defaults.
	got, err = parseCase(withInputs)
	want = sampling.PipelineConfig{Hypercubes: "random", Method: "random", NumHypercubes: 12,
		NumSamples: 3277, NumClusters: 20, CubeSx: 32, CubeSy: 32, CubeSz: 32}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("defaults = %+v, %v; want %+v", got, err, want)
	}
}

func TestParseCaseRequiresInputVars(t *testing.T) {
	if _, err := parseCase("shared:\n  dims: 2\n"); err == nil {
		t.Fatal("expected error for missing input_vars")
	}
}
