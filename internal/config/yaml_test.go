package config

import (
	"testing"
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
	if got := shared.GetStringList("input_vars"); len(got) != 4 || got[3] != "r" {
		t.Fatalf("input_vars = %v", got)
	}
	if shared.GetString("fileprefix", "") != "SST-P1-H{hypercubes}" {
		t.Fatalf("fileprefix = %v", shared["fileprefix"])
	}
	if m.GetMap("train").GetBool("sequence", false) != true {
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
	if m.GetInt("x", 7) != 7 || m.GetString("y", "d") != "d" || m.GetBool("w", true) != true {
		t.Fatal("defaults not honored")
	}
	if len(m.GetMap("missing")) != 0 {
		t.Fatal("missing map should be empty")
	}
}

func TestParseCaseFull(t *testing.T) {
	c, err := ParseCase(sampleCase)
	if err != nil {
		t.Fatal(err)
	}
	if c.Dims != 3 || c.Nx != 514 || c.NumSamples != 3277 {
		t.Fatalf("case = %+v", c)
	}
	if len(c.InputVars) != 4 || c.InputVars[0] != "u" {
		t.Fatalf("input vars %v", c.InputVars)
	}
	// Scalar output_vars form.
	if len(c.OutputVars) != 1 || c.OutputVars[0] != "p" {
		t.Fatalf("output vars %v", c.OutputVars)
	}
	if c.Hypercubes != "maxent" || c.Method != "maxent" {
		t.Fatal("subsample section lost")
	}
	if c.Epochs != 1000 || c.Batch != 16 || !c.Sequence {
		t.Fatal("train section lost")
	}
}

func TestParseCaseRequiresInputVars(t *testing.T) {
	if _, err := ParseCase("shared:\n  dims: 2\n"); err == nil {
		t.Fatal("expected error for missing input_vars")
	}
}

func TestParseCaseServeSection(t *testing.T) {
	src := `shared:
  input_vars: [u, v]
serve:
  addr: ":9090"
  max_batch: 32
  window_ms: 5
  workers: 4
  cache_entries: 3
  replicas: 1
`
	c, err := ParseCase(src)
	if err != nil {
		t.Fatal(err)
	}
	sv := c.Serve
	if sv.Addr != ":9090" || sv.MaxBatch != 32 || sv.WindowMS != 5 ||
		sv.Workers != 4 || sv.CacheEntries != 3 || sv.Replicas != 1 {
		t.Fatalf("serve section = %+v", sv)
	}
}

func TestParseCaseStreamSection(t *testing.T) {
	src := `shared:
  input_vars: [u, v]
stream:
  ranks: 4
  window: 3
  merge_every: 8
  reservoir: 500
  shard_prefix: "out/stream"
`
	c, err := ParseCase(src)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stream
	if st.Ranks != 4 || st.Window != 3 || st.MergeEvery != 8 ||
		st.Reservoir != 500 || st.ShardPrefix != "out/stream" {
		t.Fatalf("stream section = %+v", st)
	}
}

func TestParseCaseShardSection(t *testing.T) {
	src := `shared:
  input_vars: [u, v]
shard:
  addr: ":9091"
  replicas: [http://h1:8080, http://h2:8080]
  probe_ms: 500
  fail_after: 3
  max_failover: 1
  vnodes: 64
`
	c, err := ParseCase(src)
	if err != nil {
		t.Fatal(err)
	}
	sh := c.Shard
	if sh.Addr != ":9091" || sh.ProbeMS != 500 || sh.FailAfter != 3 ||
		sh.MaxFailover != 1 || sh.VNodes != 64 {
		t.Fatalf("shard section = %+v", sh)
	}
	if len(sh.Replicas) != 2 || sh.Replicas[0] != "http://h1:8080" || sh.Replicas[1] != "http://h2:8080" {
		t.Fatalf("shard replicas = %v", sh.Replicas)
	}
}

func TestParseCaseShardUnsetStaysZero(t *testing.T) {
	// Unset shard keys must parse to zero values so internal/shard.Config
	// remains the single owner of the routing defaults.
	c, err := ParseCase("shared:\n  input_vars: [u]\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.Shard.Addr != "" || c.Shard.Replicas != nil || c.Shard.ProbeMS != 0 ||
		c.Shard.FailAfter != 0 || c.Shard.MaxFailover != 0 || c.Shard.VNodes != 0 {
		t.Fatalf("shard section should be zero when unset, got %+v", c.Shard)
	}
}

func TestParseCaseStreamUnsetStaysZero(t *testing.T) {
	// Unset stream keys must parse to zero values so internal/stream.Config
	// remains the single owner of the streaming defaults.
	c, err := ParseCase("shared:\n  input_vars: [u]\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.Stream != (StreamCase{}) {
		t.Fatalf("stream section should be zero when unset, got %+v", c.Stream)
	}
}

func TestParseCaseServeUnsetStaysZero(t *testing.T) {
	// Unset serve keys must parse to zero values so internal/serve.Config
	// remains the single owner of the serving defaults.
	c, err := ParseCase("shared:\n  input_vars: [u]\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.Serve != (ServeCase{}) {
		t.Fatalf("serve section should be zero when unset, got %+v", c.Serve)
	}
}
