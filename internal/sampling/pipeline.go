package sampling

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/energy"
	"repro/internal/grid"
)

// PipelineConfig mirrors the artifact's subsample.py case parameters: which
// hypercube selector (phase 1) and point sampler (phase 2) to use, the
// hypercube geometry, and the per-cube sample budget.
type PipelineConfig struct {
	Hypercubes    string // "random" | "maxent"
	Method        string // "full" | "random" | "lhs" | "stratified" | "uips" | "maxent"
	NumHypercubes int    // cubes to keep per snapshot
	NumSamples    int    // points per cube (paper default: 3277 = 10% of 32³)
	CubeSx        int    // default 32
	CubeSy        int
	CubeSz        int
	NumClusters   int // k for the MaxEnt methods
	Seed          int64
	Meter         *energy.Meter
	// Progress, when non-nil, is called after each cube finishes phase 2
	// with the number of cubes done and the snapshot's total — the hook the
	// serve job manager uses to report cancellable progress. It must not
	// retain the arguments across calls.
	Progress func(done, total int) `json:"-" yaml:"-"`
	// Memo, when non-nil, keeps MaxEnt's seed-independent work on the
	// dataset for the next request over it (see Memo); only the MaxEnt
	// phases over a named cluster variable consult it. serve keeps one
	// beside each cached dataset; offline runs leave it nil.
	Memo *Memo `json:"-" yaml:"-"`
}

func (c *PipelineConfig) defaults() {
	if c.Hypercubes == "" {
		c.Hypercubes = "random"
	}
	if c.Method == "" {
		c.Method = "random"
	}
	if c.NumHypercubes <= 0 {
		c.NumHypercubes = 12
	}
	c.FillCubeEdges()
	if c.NumSamples <= 0 {
		c.NumSamples = c.CubeSx * c.CubeSy * c.CubeSz / 10
	}
}

// FillCubeEdges applies the cube-geometry defaults: a missing CubeSx is 32
// and a missing CubeSy or CubeSz follows CubeSx, so a config that names only
// CubeSx means cubes, not slabs.
func (c *PipelineConfig) FillCubeEdges() {
	if c.CubeSx <= 0 {
		c.CubeSx = 32
	}
	if c.CubeSy <= 0 {
		c.CubeSy = c.CubeSx
	}
	if c.CubeSz <= 0 {
		c.CubeSz = c.CubeSx
	}
}

// FitTo is the one cube-geometry rule: the FillCubeEdges defaults, then every
// edge shrinks to the grid axis it exceeds. Each path that takes cube edges
// from a caller (the CLIs, stream.Run, serve, sickle.Loop) fits them to its
// reference snapshot through here, so the same request selects the same cubes
// on all of them.
func (c *PipelineConfig) FitTo(f *grid.Field) {
	c.FillCubeEdges()
	c.CubeSx = min(c.CubeSx, f.Nx)
	c.CubeSy = min(c.CubeSy, f.Ny)
	c.CubeSz = min(c.CubeSz, f.Nz)
}

// CubeSample is the output of the two-phase pipeline for one cube of one
// snapshot: the cube identity plus the selected point indices (cube-local)
// and their feature/target values. A CubeSample owns its memory: Features
// and Targets are each one slab cut into rows (see SlabRows), and nothing in
// it aliases a sampler's scratch or another sample.
type CubeSample struct {
	Snapshot int
	Cube     grid.Hypercube
	// LocalIdx are indices into the cube's own point ordering.
	LocalIdx []int
	// Features[r] is the input feature vector of selected point r.
	Features [][]float64
	// Targets[r] holds the output variables of selected point r.
	Targets [][]float64
}

// SlabRows allocates one n×d slab and returns its n rows, each capped to
// its own d values so an append to a row can never write into its
// neighbour. It is how every CubeSample's Features and Targets are laid
// out: two allocations per matrix however many rows it has.
func SlabRows(n, d int) [][]float64 {
	slab := make([]float64, n*d)
	rows := make([][]float64, n)
	for r := range rows {
		rows[r] = slab[r*d : (r+1)*d : (r+1)*d]
	}
	return rows
}

// checkClusters rejects a k outside [0, maxEntHistBins]: more clusters than
// histogram bins resolve nothing more, at a cost that grows as k².
func checkClusters(k int) error {
	if k < 0 || k > maxEntHistBins {
		return fmt.Errorf("sampling: numClusters %d outside [0, %d]", k, maxEntHistBins)
	}
	return nil
}

// NewHypercubeSelector builds a phase-1 selector by name.
func NewHypercubeSelector(name string, numClusters int, m *energy.Meter) (HypercubeSelector, error) {
	if err := checkClusters(numClusters); err != nil {
		return nil, err
	}
	switch name {
	case "random", "":
		return HRandom{Meter: m}, nil
	case "maxent":
		return HMaxEnt{NumClusters: numClusters, Meter: m}, nil
	default:
		return nil, fmt.Errorf("sampling: unknown hypercube selector %q", name)
	}
}

// NewPointSampler builds a phase-2 sampler by name.
func NewPointSampler(name string, numClusters int, m *energy.Meter) (PointSampler, error) {
	if err := checkClusters(numClusters); err != nil {
		return nil, err
	}
	switch name {
	case "random", "":
		return Random{Meter: m}, nil
	case "full":
		return Full{Meter: m}, nil
	case "uniform":
		return Uniform{Meter: m}, nil
	case "lhs":
		return LHS{Meter: m}, nil
	case "stratified":
		return Stratified{Meter: m}, nil
	case "uips":
		return UIPS{Meter: m}, nil
	case "maxent":
		return MaxEnt{NumClusters: numClusters, Meter: m}, nil
	default:
		return nil, fmt.Errorf("sampling: unknown point sampler %q", name)
	}
}

// MethodNames lists the registered point samplers (for CLIs and sweeps).
func MethodNames() []string {
	return []string{"full", "random", "uniform", "lhs", "stratified", "uips", "maxent"}
}

// SelectCubesForDataset runs phase 1 once, on the snapshot refSnap, and
// returns the cube set to use for every snapshot. Holding the cube set
// fixed across time is what makes spatiotemporal windows well-defined: the
// same spatial region is observed at every timestep (fixed sensor regions).
// The context is checked before the (potentially expensive, for MaxEnt)
// selection runs; a canceled ctx returns ctx.Err().
func SelectCubesForDataset(ctx context.Context, d *grid.Dataset, refSnap int, cfg PipelineConfig) ([]grid.Hypercube, error) {
	return SelectCubesForField(ctx, d.Snapshots[refSnap], d.ClusterVar, cfg)
}

// SelectCubesForField runs phase 1 on a single in-memory snapshot (the
// streaming twin of SelectCubesForDataset): the rng is seeded from cfg.Seed
// alone, so streamed and offline runs derive the identical cube set from the
// same reference snapshot.
func SelectCubesForField(ctx context.Context, f *grid.Field, clusterVar string, cfg PipelineConfig) ([]grid.Hypercube, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	hsel, err := NewHypercubeSelector(cfg.Hypercubes, cfg.NumClusters, cfg.Meter)
	if err != nil {
		return nil, err
	}
	cubes := grid.Tile(f, cfg.CubeSx, cfg.CubeSy, cfg.CubeSz)
	if len(cubes) == 0 {
		return nil, fmt.Errorf("sampling: grid %dx%dx%d too small for %dx%dx%d cubes",
			f.Nx, f.Ny, f.Nz, cfg.CubeSx, cfg.CubeSy, cfg.CubeSz)
	}
	if h, ok := hsel.(HMaxEnt); ok {
		h.memo = cfg.Memo
		hsel = h
	}
	return hsel.SelectCubes(f, cubes, clusterVar, cfg.NumHypercubes, rng), nil
}

// SubsampleSnapshotWithCubes runs phase 2 on one snapshot over a fixed cube
// set, through a CubeSampler of its own. The rng is seeded per snapshot, so
// results do not depend on how snapshots are distributed across ranks;
// callers with many snapshots (stream.Run's rank workers, SubsampleDataset)
// hold one CubeSampler across them.
func SubsampleSnapshotWithCubes(ctx context.Context, d *grid.Dataset, snap int, kept []grid.Hypercube, cfg PipelineConfig) ([]CubeSample, error) {
	s, err := NewCubeSampler(cfg, d.InputVars, d.OutputVars, d.ClusterVar)
	if err != nil {
		return nil, err
	}
	return s.SampleField(ctx, d.Snapshots[snap], snap, kept)
}

// CubeSampler is phase 2 for one (config, variables) pair: point selection
// inside each kept cube of a snapshot. It owns the per-cube scratch (gather
// buffers, the sampler's working arrays) and the per-snapshot rng, both
// reused for every cube and snapshot it is run over, so a steady-state cube
// allocates only the CubeSample it returns. Not safe for concurrent use;
// give each worker its own.
type CubeSampler struct {
	cfg             PipelineConfig
	psel            PointSampler
	inVars, outVars []string
	clusterVar      string
	rng             *rand.Rand
	// The current snapshot's variable columns, resolved once per field.
	inCols, outCols [][]float64
	kcvCol          []float64
	sc              cubeScratch
}

// NewCubeSampler builds the phase-2 handle for cfg (defaults applied) over
// the given input, output and cluster variables.
func NewCubeSampler(cfg PipelineConfig, inVars, outVars []string, clusterVar string) (*CubeSampler, error) {
	cfg.defaults()
	psel, err := NewPointSampler(cfg.Method, cfg.NumClusters, cfg.Meter)
	if err != nil {
		return nil, err
	}
	return &CubeSampler{
		cfg: cfg, psel: psel,
		inVars: inVars, outVars: outVars, clusterVar: clusterVar,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		inCols: make([][]float64, len(inVars)), outCols: make([][]float64, len(outVars)),
	}, nil
}

// SampleField runs phase 2 on snapshot f over the fixed cube set kept. The
// rng is re-seeded per snapshot (Seed + snap·7919), so results depend
// neither on how snapshots are distributed across samplers nor on what a
// sampler processed before — a streamed selection reproduces the offline
// result bit for bit.
//
// The context is checked between cubes: a cancellation lands before the
// next cube starts and returns ctx.Err(), so a canceled job stops within
// one cube batch of the signal. cfg.Progress (if set) fires after every
// completed cube.
func (s *CubeSampler) SampleField(ctx context.Context, f *grid.Field, snap int, kept []grid.Hypercube) ([]CubeSample, error) {
	s.rng.Seed(s.cfg.Seed + int64(snap)*7919)
	for c, name := range s.inVars {
		s.inCols[c] = f.Var(name)
	}
	for c, name := range s.outVars {
		s.outCols[c] = f.Var(name)
	}
	s.kcvCol = nil
	if s.clusterVar != "" {
		s.kcvCol = f.Var(s.clusterVar)
	}
	out := make([]CubeSample, 0, len(kept))
	for i, cube := range kept {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out = append(out, s.sampleCube(f, snap, cube))
		if s.cfg.Progress != nil {
			s.cfg.Progress(i+1, len(kept))
		}
	}
	return out, nil
}

// sampleCube lets the point sampler choose inside the cube and copies the
// chosen points' features and targets from the field's columns into a
// CubeSample that owns them. A MaxEnt sampler with a memo takes the cube's
// clustering from it (a miss clusters in the scratch and keeps a copy) and
// only draws; every other sampler chooses over the cube gathered into the
// scratch.
func (s *CubeSampler) sampleCube(f *grid.Field, snap int, cube grid.Hypercube) CubeSample {
	total, d := cube.NPoints(), len(s.inCols)
	n := s.cfg.NumSamples
	if _, isFull := s.psel.(Full); isFull {
		n = total
	}
	var local []int
	if me, ok := s.psel.(MaxEnt); ok && s.cfg.Memo != nil && s.kcvCol != nil && n < total {
		key := memoKey{tiling{f, s.clusterVar, me.NumClusters, cube.Sx, cube.Sy, cube.Sz}, [3]int{cube.I0, cube.J0, cube.K0}}
		c := memoize(s.cfg.Memo, key, func() (clustering, int64) {
			c := s.sc.cluster(s.gather(f, cube).ClusterVar, me.NumClusters).own(total)
			return c, int64(4*total + 32*len(c.members))
		})
		local = me.draw(c, total, d, n, s.rng, &s.sc)
	} else {
		local = s.psel.SelectPoints(s.gather(f, cube), n, s.rng)
	}

	cs := CubeSample{Snapshot: snap, Cube: cube, LocalIdx: local,
		Features: SlabRows(len(local), d), Targets: SlabRows(len(local), len(s.outCols))}
	for r, li := range local {
		// Decode the cube-local index back to its flat field index.
		i, j, k := li%cube.Sx, li/cube.Sx%cube.Sy, li/(cube.Sx*cube.Sy)
		flat := ((cube.K0+k)*f.Ny+cube.J0+j)*f.Nx + cube.I0 + i
		for c, col := range s.inCols {
			cs.Features[r][c] = col[flat]
		}
		for c, col := range s.outCols {
			cs.Targets[r][c] = col[flat]
		}
	}
	return cs
}

// gather copies the cube's features and cluster variable into the scratch,
// x-fastest (the order Hypercube.VarValues uses): the view a point sampler
// chooses over.
func (s *CubeSampler) gather(f *grid.Field, cube grid.Hypercube) *Data {
	sc := &s.sc
	total, d := cube.NPoints(), len(s.inCols)
	sc.raw = grow(sc.raw, total*d)
	sc.rows = grow(sc.rows, total)
	if s.kcvCol != nil {
		sc.kcv = grow(sc.kcv, total)
	}
	r := 0
	for k := cube.K0; k < cube.K0+cube.Sz; k++ {
		for j := cube.J0; j < cube.J0+cube.Sy; j++ {
			base := (k*f.Ny+j)*f.Nx + cube.I0
			for c, col := range s.inCols {
				for i, v := range col[base : base+cube.Sx] {
					sc.raw[(r+i)*d+c] = v
				}
			}
			if s.kcvCol != nil {
				copy(sc.kcv[r:], s.kcvCol[base:base+cube.Sx])
			}
			r += cube.Sx
		}
	}
	for r := range sc.rows {
		sc.rows[r] = sc.raw[r*d : (r+1)*d : (r+1)*d]
	}
	data := &Data{Features: sc.rows, scratch: sc}
	if s.kcvCol != nil {
		data.ClusterVar = sc.kcv
	}
	return data
}

// SubsampleSnapshot runs the full two-phase pipeline (Fig. 3) on one
// snapshot in isolation: tile → phase-1 cube selection → phase-2 point
// selection inside each kept cube. When cfg.Method == "full" the second
// phase is skipped and every point of each cube is kept (the paper's
// structured-cube baseline).
func SubsampleSnapshot(ctx context.Context, d *grid.Dataset, snap int, cfg PipelineConfig) ([]CubeSample, error) {
	kept, err := SelectCubesForDataset(ctx, d, snap, cfg)
	if err != nil {
		return nil, err
	}
	return SubsampleSnapshotWithCubes(ctx, d, snap, kept, cfg)
}

// SubsampleDataset runs the pipeline over every snapshot serially: one
// phase-1 selection on snapshot 0, then phase-2 per snapshot over the fixed
// cube set. The context is checked between phases and between snapshots
// (and, inside each snapshot, between cubes).
func SubsampleDataset(ctx context.Context, d *grid.Dataset, cfg PipelineConfig) ([]CubeSample, error) {
	kept, err := SelectCubesForDataset(ctx, d, 0, cfg)
	if err != nil {
		return nil, err
	}
	s, err := NewCubeSampler(cfg, d.InputVars, d.OutputVars, d.ClusterVar)
	if err != nil {
		return nil, err
	}
	var out []CubeSample
	for t, f := range d.Snapshots {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cs, err := s.SampleField(ctx, f, t, kept)
		if err != nil {
			return nil, err
		}
		out = append(out, cs...)
	}
	return out, nil
}
