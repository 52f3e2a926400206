package config

import (
	"fmt"
	"os"

	"repro/internal/sampling"
)

// Case is the typed view of a SICKLE case file, mirroring the paper's YAML
// schema (shared / subsample / train sections; see the SST-P1F4 example in
// Appendix B).
type Case struct {
	// shared
	Dims       int
	Dtype      string
	InputVars  []string
	OutputVars []string
	ClusterVar string
	Nx, Ny, Nz int
	Gravity    string
	FilePrefix string
	// subsample
	Hypercubes       string
	NumHypercubes    int
	Method           string
	Path             string
	NumSamples       int
	NumClusters      int
	NxSL, NySL, NzSL int // hypercube edge sizes (nxsl/nysl/nzsl)
	// train
	Epochs   int
	Batch    int
	Target   string
	Window   int
	Arch     string
	Sequence bool
	Seed     int64
	// serve
	Serve ServeCase
	// stream
	Stream StreamCase
	// shard
	Shard ShardCase
	// obs
	Obs ObsCase
}

// ObsCase is the optional `obs:` section of a case file, sizing the
// flight-recorder stack (metrics history, event journal, SLO engine)
// shared by serve and shard. Unset keys stay zero so the obs subpackages
// own the defaults. SLOs are compact colon-joined specs (the YAML subset
// parser keeps block-list items scalar), e.g.
//
//	obs:
//	  history_interval_ms: 1000
//	  slos:
//	    - latency:/v2/infer:250ms:99.9
//	    - availability:/v2/infer:99.9
//	    - queue_depth:64:99
//
// See internal/obs/slo.ParseObjective for the spec grammar.
type ObsCase struct {
	HistoryIntervalMS int      // tsdb sampling period (0 = 1000)
	HistoryCapacity   int      // points kept per series (0 = 600)
	EventCapacity     int      // event-journal ring size (0 = 1024)
	SLOs              []string // objective specs
}

// ServeCase is the optional `serve:` section of a case file, sizing the
// sickle-serve service (see internal/serve.Config for the semantics).
type ServeCase struct {
	Addr         string
	MaxBatch     int
	WindowMS     int
	Workers      int
	QueueCap     int
	CacheEntries int
	Replicas     int
	JobWorkers   int
	JobTTLMin    int
	DataDir      string // durability dir: WAL + results + dedup cache ("" = in-memory)
	DebugAddr    string // pprof + debug endpoints listener ("" = off)
}

// ShardCase is the optional `shard:` section of a case file, sizing the
// sickle-shard router (see internal/shard.Config for the semantics).
// Unset keys stay zero so shard.Config owns the defaults.
type ShardCase struct {
	Addr        string
	Replicas    []string // backend base URLs
	ProbeMS     int
	FailAfter   int
	MaxFailover int
	Replication int // owner-set size K for keyed job submissions
	VNodes      int
	DebugAddr   string // pprof + debug endpoints listener ("" = off)
}

// StreamCase is the optional `stream:` section of a case file, sizing the
// sickle-stream in-situ pipeline (see internal/stream.Config for the
// semantics). Unset keys stay zero so stream.Config owns the defaults.
type StreamCase struct {
	Ranks       int
	Window      int
	MergeEvery  int
	SketchBins  int
	Reservoir   int
	ShardPrefix string
}

// Pipeline is the case's subsample section as the sampling configuration.
func (c *Case) Pipeline() sampling.PipelineConfig {
	return sampling.PipelineConfig{
		Hypercubes: c.Hypercubes, Method: c.Method,
		NumHypercubes: c.NumHypercubes, NumSamples: c.NumSamples, NumClusters: c.NumClusters,
		CubeSx: c.NxSL, CubeSy: c.NySL, CubeSz: c.NzSL,
		Seed: c.Seed,
	}
}

// LoadCase reads and parses a case file from disk.
func LoadCase(path string) (*Case, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseCase(string(raw))
}

// ParseCase parses case-file text.
func ParseCase(src string) (*Case, error) {
	m, err := ParseYAML(src)
	if err != nil {
		return nil, err
	}
	shared := m.GetMap("shared")
	sub := m.GetMap("subsample")
	tr := m.GetMap("train")
	sv := m.GetMap("serve")
	st := m.GetMap("stream")
	sh := m.GetMap("shard")
	ob := m.GetMap("obs")

	c := &Case{
		Dims:       shared.GetInt("dims", 3),
		Dtype:      shared.GetString("dtype", ""),
		InputVars:  getVarList(shared, "input_vars"),
		OutputVars: getVarList(shared, "output_vars"),
		ClusterVar: shared.GetString("cluster_var", ""),
		Nx:         shared.GetInt("nx", 0),
		Ny:         shared.GetInt("ny", 0),
		Nz:         shared.GetInt("nz", 0),
		Gravity:    shared.GetString("gravity", "z"),
		FilePrefix: shared.GetString("fileprefix", ""),

		Hypercubes:    sub.GetString("hypercubes", "random"),
		NumHypercubes: sub.GetInt("num_hypercubes", 12),
		Method:        sub.GetString("method", "random"),
		Path:          sub.GetString("path", ""),
		NumSamples:    sub.GetInt("num_samples", 3277),
		NumClusters:   sub.GetInt("num_clusters", 20),
		NxSL:          sub.GetInt("nxsl", 32),
		NySL:          sub.GetInt("nysl", 32),
		NzSL:          sub.GetInt("nzsl", 32),

		Epochs:   tr.GetInt("epochs", 1000),
		Batch:    tr.GetInt("batch", 16),
		Target:   tr.GetString("target", ""),
		Window:   tr.GetInt("window", 1),
		Arch:     tr.GetString("arch", "MLP_transformer"),
		Sequence: tr.GetBool("sequence", false),
		Seed:     int64(tr.GetInt("seed", 0)),

		// Unset serve keys stay zero: internal/serve.Config owns the
		// defaults, so they live in exactly one place.
		Serve: ServeCase{
			Addr:         sv.GetString("addr", ""),
			MaxBatch:     sv.GetInt("max_batch", 0),
			WindowMS:     sv.GetInt("window_ms", 0),
			Workers:      sv.GetInt("workers", 0),
			QueueCap:     sv.GetInt("queue_cap", 0),
			CacheEntries: sv.GetInt("cache_entries", 0),
			Replicas:     sv.GetInt("replicas", 0),
			JobWorkers:   sv.GetInt("job_workers", 0),
			JobTTLMin:    sv.GetInt("job_ttl_min", 0),
			DataDir:      sv.GetString("data_dir", ""),
			DebugAddr:    sv.GetString("debug_addr", ""),
		},

		// Unset shard keys stay zero: internal/shard.Config owns the
		// defaults (same discipline as serve).
		Shard: ShardCase{
			Addr:        sh.GetString("addr", ""),
			Replicas:    sh.GetStringList("replicas"),
			ProbeMS:     sh.GetInt("probe_ms", 0),
			FailAfter:   sh.GetInt("fail_after", 0),
			MaxFailover: sh.GetInt("max_failover", 0),
			Replication: sh.GetInt("replication", 0),
			VNodes:      sh.GetInt("vnodes", 0),
			DebugAddr:   sh.GetString("debug_addr", ""),
		},

		// Unset stream keys stay zero: internal/stream.Config owns the
		// defaults (same discipline as serve).
		Stream: StreamCase{
			Ranks:       st.GetInt("ranks", 0),
			Window:      st.GetInt("window", 0),
			MergeEvery:  st.GetInt("merge_every", 0),
			SketchBins:  st.GetInt("sketch_bins", 0),
			Reservoir:   st.GetInt("reservoir", 0),
			ShardPrefix: st.GetString("shard_prefix", ""),
		},

		// Unset obs keys stay zero: the obs subpackages own the defaults.
		Obs: ObsCase{
			HistoryIntervalMS: ob.GetInt("history_interval_ms", 0),
			HistoryCapacity:   ob.GetInt("history_capacity", 0),
			EventCapacity:     ob.GetInt("event_capacity", 0),
			SLOs:              ob.GetStringList("slos"),
		},
	}
	if len(c.InputVars) == 0 {
		return nil, fmt.Errorf("config: case has no input_vars")
	}
	return c, nil
}

// getVarList accepts both YAML forms the artifact uses: a list
// ("input_vars: [u, v, w, r]") and a bare scalar ("output_vars: p").
func getVarList(m Map, key string) []string {
	if l := m.GetStringList(key); l != nil {
		return l
	}
	if s := m.GetString(key, ""); s != "" {
		return []string{s}
	}
	return nil
}
