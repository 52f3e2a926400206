package serve

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"time"

	"repro/internal/durable"
	"repro/internal/grid"
	"repro/internal/nn"
	"repro/internal/obs/events"
	"repro/internal/sampling"
	"repro/internal/sickle"
	"repro/internal/train"
	"repro/pkg/api"
)

// asCallerError types an untyped failure as the caller's mistake:
// not_found for a reference that did not resolve (unknown dataset name,
// missing .skl shard), invalid_argument for a pipeline failure past
// resolution (unknown sampler or selector names, cubes larger than the
// grid, an architecture the dataset cannot feed). Neither is a server
// fault. Cancellation and already-typed errors pass through untouched.
func asCallerError(err error, code api.ErrorCode) *api.Error {
	ae := api.AsError(err)
	if ae.Code == api.CodeInternal {
		return api.Errorf(code, "%s", ae.Message)
	}
	return ae
}

// datasetKey namespaces cache entries so a dataset name can never collide
// with a shard path.
func datasetKey(name, scale string) string { return "dataset:" + name + "/" + scale }
func shardKey(path string) string          { return "shard:" + path }

// cachedDataset is a dataset's cache entry: the dataset and the memo of
// MaxEnt's seed-independent work on it, evicted together.
type cachedDataset struct {
	d    *grid.Dataset
	memo *sampling.Memo
}

// resolveDataset returns the (possibly cached) dataset for a request and
// the memo cached beside it. The
// context bounds how long a caller waits on another request's in-flight
// synthesis of the same dataset.
func (s *Server) resolveDataset(ctx context.Context, name, scaleStr string) (*grid.Dataset, *sampling.Memo, bool, error) {
	var scale sickle.Scale
	if err := scale.UnmarshalText([]byte(scaleStr)); err != nil {
		return nil, nil, false, api.Errorf(api.CodeInvalidArgument, "%s", err.Error())
	}
	canonical, _ := scale.MarshalText() // never fails
	v, hit, err := s.cache.GetOrLoad(ctx, datasetKey(name, string(canonical)), func() (any, error) {
		d, err := sickle.BuildDatasetUncached(name, scale)
		if err != nil {
			return nil, err
		}
		return cachedDataset{d, sampling.NewMemo(d)}, nil
	})
	if err != nil {
		return nil, nil, hit, err
	}
	cd := v.(cachedDataset)
	return cd.d, cd.memo, hit, nil
}

// resolveShard returns the (possibly cached) cube samples of a .skl file.
func (s *Server) resolveShard(ctx context.Context, path string) ([]sampling.CubeSample, bool, error) {
	v, hit, err := s.cache.GetOrLoad(ctx, shardKey(path), func() (any, error) {
		return sickle.LoadCubeSamples(path)
	})
	if err != nil {
		return nil, hit, err
	}
	return v.([]sampling.CubeSample), hit, nil
}

// pipelineConfig translates the wire request into sampling parameters,
// the cube edge (default 16) fitted to the snapshot's grid.
func pipelineConfig(req *api.SubsampleRequest, f *grid.Field) sampling.PipelineConfig {
	pcfg := sampling.PipelineConfig{
		Hypercubes:    req.Hypercubes,
		Method:        req.Method,
		NumHypercubes: req.NumHypercubes,
		NumSamples:    req.NumSamples,
		CubeSx:        req.Cube,
		NumClusters:   req.NumClusters,
		Seed:          req.Seed,
	}
	if pcfg.CubeSx <= 0 {
		pcfg.CubeSx = 16
	}
	pcfg.FitTo(f)
	return pcfg
}

// doSubsample runs the two-phase pipeline (or reads a shard) under ctx and
// reports what was selected. The dataset or shard comes from the cache, and
// MaxEnt's seed-independent work (cube strengths, per-cube clusterings)
// from the memo cached beside the dataset; the seeded draws run per call.
// progress (may be nil) receives per-cube completion updates; job
// submissions use it to expose cancellable progress counters.
func (s *Server) doSubsample(ctx context.Context, req *api.SubsampleRequest, progress func(done, total int)) (*api.SubsampleResponse, error) {
	t0 := time.Now()
	if req.Shard != "" {
		cubes, hit, err := s.resolveShard(ctx, req.Shard)
		if err != nil {
			return nil, asCallerError(err, api.CodeNotFound)
		}
		points := 0
		for _, cs := range cubes {
			points += len(cs.LocalIdx)
		}
		return &api.SubsampleResponse{
			Dataset: req.Shard, Cubes: len(cubes), Points: points,
			CacheHit: hit, ElapsedMS: msSince(t0),
		}, nil
	}
	if req.Dataset == "" {
		return nil, api.Errorf(api.CodeInvalidArgument, "serve: request needs dataset or shard")
	}
	d, memo, hit, err := s.resolveDataset(ctx, req.Dataset, req.Scale)
	if err != nil {
		return nil, asCallerError(err, api.CodeNotFound)
	}
	if req.Snapshot < 0 || req.Snapshot >= len(d.Snapshots) {
		return nil, api.Errorf(api.CodeInvalidArgument,
			"serve: snapshot %d out of range (dataset has %d)", req.Snapshot, len(d.Snapshots))
	}
	f := d.Snapshots[req.Snapshot]
	pcfg := pipelineConfig(req, f)
	pcfg.Memo = memo
	pcfg.Progress = func(done, total int) {
		if progress != nil {
			progress(done, total)
		}
		if s.testProgressHook != nil {
			s.testProgressHook(done, total)
		}
	}
	cubes, err := sampling.SubsampleSnapshot(ctx, d, req.Snapshot, pcfg)
	if err != nil {
		return nil, asCallerError(err, api.CodeInvalidArgument)
	}
	points := 0
	for _, cs := range cubes {
		points += len(cs.LocalIdx)
	}
	return &api.SubsampleResponse{
		Dataset: d.Label, Snapshot: req.Snapshot, Cubes: len(cubes),
		Points: points, CacheHit: hit, ElapsedMS: msSince(t0),
	}, nil
}

// subsampleJobRunner adapts a subsample request to the job manager: the
// sampling pipeline's per-cube progress callback feeds the job's progress
// counters, and the job context reaches the cancel checks between cubes.
//
// With a data dir configured, the runner first consults the
// content-addressed cache under durable.ContentKey(req): a hit returns
// the stored result bytes verbatim — byte-identical to the run that
// produced them, ElapsedMS included — a corrupt blob (bad CRC) is
// deleted and recomputed, and a miss stores the fresh result for the
// next identical request.
func (s *Server) subsampleJobRunner(req api.SubsampleRequest) JobRunner {
	return func(ctx context.Context, progress func(stage string, done, total int)) (*api.JobResult, error) {
		var key string
		if s.durable != nil {
			key = durable.ContentKey(req)
			b, err := s.durable.Cache.Get(key)
			if err == nil {
				var res api.JobResult
				if json.Unmarshal(b, &res) == nil && res.Subsample != nil {
					tc, _ := api.TraceFrom(ctx)
					s.Journal().Emit(events.TypeDedupHit, "subsample served from content-addressed cache",
						tc.TraceID, "key", key[:12], "kind", "cas")
					return &res, nil
				}
				err = durable.ErrCorrupt
			}
			if errors.Is(err, durable.ErrCorrupt) {
				s.durable.Cache.Delete(key)
			}
		}
		progress("resolve", 0, 0)
		resp, err := s.doSubsample(ctx, &req, func(done, total int) {
			progress("sampling", done, total)
		})
		if err != nil {
			return nil, err
		}
		result := &api.JobResult{Subsample: resp}
		if key != "" {
			// Best-effort memoization: a failed Put costs only the next
			// duplicate a recompute.
			if b, merr := json.Marshal(result); merr == nil {
				s.durable.Cache.Put(key, b)
			}
		}
		return result, nil
	}
}

// trainJobRunner runs the paper's offline pipeline as one cancellable job:
// resolve dataset → two-phase subsample → train a Table 2 surrogate →
// optionally checkpoint and register it for serving. Cancellation lands
// between cubes during sampling and between batches/epochs during
// training.
func (s *Server) trainJobRunner(spec api.TrainJobSpec) JobRunner {
	return func(ctx context.Context, progress func(stage string, done, total int)) (*api.JobResult, error) {
		if spec.Dataset == "" {
			return nil, api.Errorf(api.CodeInvalidArgument, "train job needs a dataset")
		}
		arch := specToArch(spec.Spec)
		if err := arch.Validate(); err != nil {
			return nil, api.Errorf(api.CodeInvalidArgument, "%s", err.Error())
		}
		progress("resolve", 0, 0)
		d, memo, _, err := s.resolveDataset(ctx, spec.Dataset, spec.Scale)
		if err != nil {
			return nil, asCallerError(err, api.CodeNotFound)
		}

		sub := api.SubsampleRequest{}
		if spec.Subsample != nil {
			sub = *spec.Subsample
		}
		pcfg := pipelineConfig(&sub, d.Snapshots[0])
		pcfg.Memo = memo
		pcfg.Progress = func(done, total int) { progress("subsample", done, total) }
		tcfg := train.Config{
			Epochs: spec.Epochs, Batch: spec.Batch, LR: spec.LR, Seed: spec.Seed,
			Progress: func(done, total int) { progress("train", done, total) },
		}
		if tcfg.Epochs <= 0 {
			tcfg.Epochs = 5
		}
		if tcfg.Batch <= 0 {
			tcfg.Batch = 8
		}
		res, err := sickle.Loop{Pipeline: pcfg, Arch: arch, Window: spec.Window, Train: tcfg}.Run(ctx, d)
		if err != nil {
			return nil, asCallerError(err, api.CodeInvalidArgument)
		}
		result := &api.TrainJobResult{
			Examples:  len(res.Examples),
			Params:    res.History.Params,
			Epochs:    res.History.Epochs,
			FinalLoss: res.History.FinalLoss,
		}
		if spec.Register != "" {
			progress("register", 0, 0)
			// A unique temp file, never derived from the client-supplied
			// name: interpolating Register into the path would hand POST
			// /v2/jobs an arbitrary-file-write primitive via "../" names,
			// and per-name paths would collide across concurrent jobs.
			ckpt, err := os.CreateTemp("", "sickle-job-*.sknn")
			if err != nil {
				return nil, api.Errorf(api.CodeInternal, "%s", err.Error())
			}
			path := ckpt.Name()
			_ = ckpt.Close() // created only to reserve the name; SaveCheckpoint rewrites it
			if err := nn.SaveCheckpoint(path, res.Model); err != nil {
				return nil, api.Errorf(api.CodeInternal, "%s", err.Error())
			}
			replicas := spec.Replicas
			if replicas <= 0 {
				replicas = DefaultReplicas
			}
			e, err := s.reg.Register(spec.Register, res.Spec, path, res.Examples[0].Input.Shape, replicas)
			if err != nil {
				return nil, api.Errorf(api.CodeInvalidArgument, "%s", err.Error())
			}
			result.Registered = e.Name
			result.Version = e.Version
		}
		return &api.JobResult{Train: result}, nil
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
