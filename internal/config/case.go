package config

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strings"

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
	r := &strict{root: m}

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
			Addr:         r.str("serve.addr"),
			MaxBatch:     r.int("serve.max_batch"),
			WindowMS:     r.int("serve.window_ms"),
			Workers:      r.int("serve.workers"),
			QueueCap:     r.int("serve.queue_cap"),
			CacheEntries: r.int("serve.cache_entries"),
			Replicas:     r.int("serve.replicas"),
			JobWorkers:   r.int("serve.job_workers"),
			JobTTLMin:    r.int("serve.job_ttl_min"),
			DataDir:      r.str("serve.data_dir"),
			DebugAddr:    r.str("serve.debug_addr"),
		},

		// Unset shard keys stay zero: internal/shard.Config owns the
		// defaults (same discipline as serve).
		Shard: ShardCase{
			Addr:        r.str("shard.addr"),
			Replicas:    r.list("shard.replicas"),
			ProbeMS:     r.int("shard.probe_ms"),
			FailAfter:   r.int("shard.fail_after"),
			MaxFailover: r.int("shard.max_failover"),
			Replication: r.int("shard.replication"),
			VNodes:      r.int("shard.vnodes"),
			DebugAddr:   r.str("shard.debug_addr"),
		},

		// Unset stream keys stay zero: internal/stream.Config owns the
		// defaults (same discipline as serve).
		Stream: StreamCase{
			Ranks:       r.int("stream.ranks"),
			Window:      r.int("stream.window"),
			MergeEvery:  r.int("stream.merge_every"),
			Reservoir:   r.int("stream.reservoir"),
			ShardPrefix: r.str("stream.shard_prefix"),
		},

		// Unset obs keys stay zero: the obs subpackages own the defaults.
		Obs: ObsCase{
			HistoryIntervalMS: r.int("obs.history_interval_ms"),
			HistoryCapacity:   r.int("obs.history_capacity"),
			EventCapacity:     r.int("obs.event_capacity"),
			SLOs:              r.list("obs.slos"),
		},
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	if len(c.InputVars) == 0 {
		return nil, fmt.Errorf("config: case has no input_vars")
	}
	return c, nil
}

// strict reads the sections this repo defines itself (serve, shard, stream,
// obs) by "section.key". The artifact's shared/subsample/train sections carry
// keys this repo does not model and stay permissive; here a key nobody reads
// is a typo and a value of the wrong type is a fleet running on a default it
// never chose, so both are errors. Each read removes its key: what done finds
// left over was never defined.
type strict struct {
	root Map
	errs []error
}

// take removes path's value and returns it as a T: the zero T when it is
// unset, null or (an error) anything else. A float with no fraction is an int.
func take[T any](r *strict, path, want string) T {
	sec, key, _ := strings.Cut(path, ".")
	m := r.root.GetMap(sec)
	v := m[key]
	delete(m, key)
	if f, isFloat := v.(float64); isFloat && f == math.Trunc(f) {
		v = int64(f)
	}
	out, ok := v.(T)
	if !ok && v != nil {
		r.errs = append(r.errs, fmt.Errorf("config: %s: want %s, got %v", path, want, v))
	}
	return out
}

func (r *strict) int(path string) int       { return int(take[int64](r, path, "an integer")) }
func (r *strict) str(path string) string    { return take[string](r, path, "a string") }
func (r *strict) list(path string) []string { return stringList(take[[]any](r, path, "a list")) }

func (r *strict) done() error {
	for _, sec := range []string{"serve", "shard", "stream", "obs"} {
		if _, isMap := r.root[sec].(Map); !isMap && r.root[sec] != nil {
			r.errs = append(r.errs, fmt.Errorf("config: %s: want a mapping, got %v", sec, r.root[sec]))
		}
		for _, key := range slices.Sorted(maps.Keys(r.root.GetMap(sec))) {
			r.errs = append(r.errs, fmt.Errorf("config: %s.%s: unknown key", sec, key))
		}
	}
	return errors.Join(r.errs...)
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
