package config

import (
	"fmt"
	"maps"
	"os"
	"slices"

	"repro/internal/sampling"
)

// LoadPipeline returns the T1 pipeline a case file describes: the subsample
// section of the paper's schema (shared / subsample / train; see the
// SST-P1F4 example in Appendix B), seeded by train.seed. With path "" it
// returns the pipeline sickle-subsample and sickle-stream run without -case.
func LoadPipeline(path string) (sampling.PipelineConfig, error) {
	if path == "" {
		return sampling.PipelineConfig{Hypercubes: "maxent", Method: "maxent",
			NumHypercubes: 4, NumClusters: 5, Seed: 1}, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return sampling.PipelineConfig{}, err
	}
	return parseCase(string(raw))
}

// parseCase parses case-file text. The three sections stay permissive — the
// artifact's files carry keys this repo does not model — but a fourth
// top-level section is an error, as is a case without input_vars.
func parseCase(src string) (sampling.PipelineConfig, error) {
	m, err := ParseYAML(src)
	if err != nil {
		return sampling.PipelineConfig{}, err
	}
	for _, sec := range slices.Sorted(maps.Keys(m)) {
		if sec != "shared" && sec != "subsample" && sec != "train" {
			return sampling.PipelineConfig{}, fmt.Errorf("config: unknown section %q (a case file has shared, subsample and train)", sec)
		}
	}
	// The artifact writes input_vars as a list ("[u, v, w, r]") or a bare
	// scalar ("u").
	vars := m.GetMap("shared")["input_vars"]
	if list, _ := vars.([]any); len(list) == 0 {
		if s, _ := vars.(string); s == "" {
			return sampling.PipelineConfig{}, fmt.Errorf("config: case has no input_vars")
		}
	}
	sub := m.GetMap("subsample")
	return sampling.PipelineConfig{
		Hypercubes:    sub.GetString("hypercubes", "random"),
		Method:        sub.GetString("method", "random"),
		NumHypercubes: sub.GetInt("num_hypercubes", 12),
		NumSamples:    sub.GetInt("num_samples", 3277),
		NumClusters:   sub.GetInt("num_clusters", 20),
		CubeSx:        sub.GetInt("nxsl", 32),
		CubeSy:        sub.GetInt("nysl", 32),
		CubeSz:        sub.GetInt("nzsl", 32),
		Seed:          int64(m.GetMap("train").GetInt("seed", 0)),
	}, nil
}
