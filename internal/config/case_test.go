package config

import (
	"strings"
	"testing"
)

const withInputs = "shared:\n  input_vars: [u]\n"

// TestParseCaseSections: a case file is the artifact's three sections. Any
// fourth — serve, shard, stream, obs or another — is an error naming it, so
// a file that carries one fails loudly instead of being ignored; keys inside
// the three sections that this repo does not model stay fine.
func TestParseCaseSections(t *testing.T) {
	cases := []struct {
		name, src string
		want      string // substring of the error; "" = accepted
	}{
		{"serve", withInputs + "serve:\n  max_batch: 8\n", `section "serve"`},
		{"shard", withInputs + "shard:\n  replicas: [http://h1:8080]\n", `section "shard"`},
		{"stream", withInputs + "stream:\n  ranks: 2\n", `section "stream"`},
		{"obs", withInputs + "obs:\n  slos:\n    - queue_depth:64:99\n", `section "obs"`},
		{"empty unknown section", withInputs + "plot:\n", `section "plot"`},
		{"scalar at the top", "seed: 3\n" + withInputs, `section "seed"`},
		{"no input_vars", "shared:\n  dims: 2\nsubsample:\n  method: uips\n", "no input_vars"},
		{"empty input_vars list", "shared:\n  input_vars: []\n", "no input_vars"},
		{"scalar input_vars", "shared:\n  input_vars: u\n", ""},
		{"keys this repo does not model",
			withInputs + "  halo: 3\nsubsample:\n  scheduler: slurm\ntrain:\n  lr: 0.001\n  epochs: many\n", ""},
	}
	for _, tc := range cases {
		_, err := parseCase(tc.src)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// FuzzParseCase: the case parser never panics, and whatever it accepts has
// only the three sections and a non-empty input_vars.
func FuzzParseCase(f *testing.F) {
	f.Add(sampleCase)
	f.Add(withInputs + "obs:\n  history_interval_ms: 1000\n")
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := parseCase(src); err != nil {
			return
		}
		m, err := ParseYAML(src)
		if err != nil {
			t.Fatalf("parseCase accepted what ParseYAML rejects: %v", err)
		}
		for sec := range m {
			if sec != "shared" && sec != "subsample" && sec != "train" {
				t.Fatalf("accepted section %q", sec)
			}
		}
		switch v := m.GetMap("shared")["input_vars"].(type) {
		case []any:
			if len(v) == 0 {
				t.Fatal("accepted an empty input_vars list")
			}
		case string:
			if v == "" {
				t.Fatal("accepted an empty input_vars")
			}
		default:
			t.Fatalf("accepted input_vars %v", v)
		}
	})
}
