package sickle

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/energy"
	"repro/internal/sampling"
	"repro/internal/train"
)

// hexFloat parses a hex-float golden; the goldens below are compared bit
// for bit.
func hexFloat(t testing.TB, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// requireBits pins got to a golden, except under the race detector: it
// changes no float, and the non-race run pins them.
func requireBits(t testing.TB, what string, got float64, want string) {
	t.Helper()
	if !raceEnabled && math.Float64bits(got) != math.Float64bits(hexFloat(t, want)) {
		t.Errorf("%s = %x, want %s", what, got, want)
	}
}

// TestGoldenFigures holds the figure drivers, now thin callers of Loop, to
// the numbers the eight hand-written copies of the loop produced: every
// Fig. 6 and Fig. 8 value and Fig. 9's energy columns were recorded from the
// pre-Loop code and must never be regenerated to make a change pass. Fig. 9's
// loss column alone was re-recorded when its private masked builder merged
// into train.BuildFullFull: the same examples, now in every other builder's
// cube-major order, split 90:10 differently. The rows are the ones
// TestFig6SmallRun, TestFig8SmallRun and TestFig9SmallRun check the paper's
// claims on, so each config trains once; under -race only the bit pins skip.
func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiments")
	}
	t.Run("Fig6", func(t *testing.T) {
		rows, err := fig6Small()
		if err != nil {
			t.Fatal(err)
		}
		want := map[string][2]string{
			"random": {"0x1.0dce67d8a1842p+01", "0x1.afcaf48497ap-08"},
			"maxent": {"0x1.103dd853e6b99p+01", "0x1.11be4a0ece6p-08"},
		}
		if len(rows) != len(want) {
			t.Fatalf("%d rows, want %d", len(rows), len(want))
		}
		for _, r := range rows {
			requireBits(t, r.Method+" mean loss", r.MeanLoss, want[r.Method][0])
			requireBits(t, r.Method+" loss std", r.StdLoss, want[r.Method][1])
		}
	})
	t.Run("Fig8", func(t *testing.T) {
		rows, err := fig8Small()
		if err != nil {
			t.Fatal(err)
		}
		const sparseTrain, fullTrain = "0x1.5d5b3617d03c8p-13", "0x1.30c1914ae4ac7p-10"
		want := []struct{ name, loss, train, sample string }{
			{"Hmaxent-Xmaxent", "0x1.00e33e7c5e7cp+00", sparseTrain, "0x1.00eed8df56719p-14"},
			{"Hmaxent-Xuips", "0x1.00f408ff6207ep+00", sparseTrain, "0x1.f0afa5d6860c8p-15"},
			{"Hrandom-Xfull", "0x1.0010697beffb7p+00", fullTrain, "0x1.b1d018c7fd234p-15"},
			{"Hrandom-Xmaxent", "0x1.028c539d214d7p+00", sparseTrain, "0x1.cfe0ad9e411acp-15"},
			{"Hrandom-Xuips", "0x1.020aee98d5d11p+00", sparseTrain, "0x1.beb2a1b61a443p-15"},
		}
		if len(rows) != len(want) {
			t.Fatalf("%d cases, want %d", len(rows), len(want))
		}
		for i, w := range want {
			r := rows[i]
			if r.Case != w.name || r.Report.Label != "SST-P1F4/"+w.name {
				t.Fatalf("case %d is %q (label %q), want %q", i, r.Case, r.Report.Label, w.name)
			}
			requireBits(t, w.name+" EvalLoss", r.Report.EvalLoss, w.loss)
			requireBits(t, w.name+" TrainJoules", r.Report.TrainJoules, w.train)
			requireBits(t, w.name+" SampleJoules", r.Report.SampleJoules, w.sample)
		}
	})
	t.Run("Fig9", func(t *testing.T) {
		rows, err := fig9Small()
		if err != nil {
			t.Fatal(err)
		}
		const trainJ = "0x1.0516eb2903598p-10"
		want := []struct{ method, loss, sample string }{
			{"uniform", "0x1.2e4b37160f456p+00", "0x1.59d8e2a569401p-18"},
			{"random", "0x1.32b4d2f6d9961p+00", "0x1.59d8e2a569401p-18"},
			{"maxent", "0x1.321857a16c112p+00", "0x1.cfe0ad9e411acp-15"},
		}
		if len(rows) != len(want) {
			t.Fatalf("%d rows, want %d", len(rows), len(want))
		}
		for i, w := range want {
			r := rows[i]
			if r.Method != w.method {
				t.Fatalf("row %d is %q, want %q", i, r.Method, w.method)
			}
			requireBits(t, w.method+" EvalLoss", r.Report.EvalLoss, w.loss)
			requireBits(t, w.method+" TrainJoules", r.Report.TrainJoules, trainJ)
			requireBits(t, w.method+" SampleJoules", r.Report.SampleJoules, w.sample)
		}
	})
}

// TestLoopRunIsFitOverItsOwnSelection: Run is fit-geometry → subsample →
// Fit, so fitting the cubes a run selected reproduces the run bit for bit;
// the result carries the sized spec and a report from meters the loop made.
func TestLoopRunIsFitOverItsOwnSelection(t *testing.T) {
	d, err := BuildDataset("SST-P1F4", Small)
	if err != nil {
		t.Fatal(err)
	}
	loop := Loop{
		Pipeline: sampling.PipelineConfig{Method: "random", NumHypercubes: 4, NumSamples: 32, CubeSx: 100, Seed: 3},
		Arch:     train.ArchSpec{Arch: "mlp_transformer", Hidden: 8},
		Train:    train.Config{Epochs: 1, Batch: 2, Seed: 3},
	}
	f := d.Snapshots[0]
	run, err := loop.Run(t.Context(), d)
	if err != nil {
		t.Fatal(err)
	}
	if c := run.Cubes[0].Cube; c.Sx != f.Nx || c.Sy != f.Ny || c.Sz != f.Nz {
		t.Fatalf("edge 100 on a %d×%d×%d grid selected %d×%d×%d cubes, want the grid", f.Nx, f.Ny, f.Nz, c.Sx, c.Sy, c.Sz)
	}
	want := train.ArchSpec{Arch: "mlp_transformer", InDim: len(d.InputVars), Hidden: 8, OutDim: len(d.OutputVars), Edge: f.Nx}
	if run.Spec != want {
		t.Fatalf("spec sized to %+v, want %+v", run.Spec, want)
	}
	r := run.Report
	if r.SampleJoules <= 0 || r.TrainJoules <= 0 || r.EvalLoss != run.History.FinalLoss || run.Model == nil {
		t.Fatalf("report %+v does not describe the run (history loss %v)", r, run.History.FinalLoss)
	}

	fit, err := loop.Fit(t.Context(), d, run.Cubes)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(fit.Report.EvalLoss) != math.Float64bits(r.EvalLoss) || fit.Report.TrainJoules != r.TrainJoules {
		t.Fatalf("Fit over the run's cubes: loss %x, %v J; Run: loss %x, %v J",
			fit.Report.EvalLoss, fit.Report.TrainJoules, r.EvalLoss, r.TrainJoules)
	}
	if fit.Report.SampleJoules != 0 {
		t.Fatalf("Fit sampled nothing but reports %v J of sampling", fit.Report.SampleJoules)
	}
	if _, err := loop.Fit(t.Context(), d, nil); err == nil {
		t.Fatal("Fit over no samples must fail, not panic")
	}
}

// TestLoopFitRejectsSamplesOfAnotherDataset: samples that do not fit the
// dataset — a .skl file of another case — are an error before the layout
// indexes the dataset with them, never a panic inside it.
func TestLoopFitRejectsSamplesOfAnotherDataset(t *testing.T) {
	d, err := BuildDataset("SST-P1F4", Small)
	if err != nil {
		t.Fatal(err)
	}
	other, err := BuildDataset("GESTS-2048", Small)
	if err != nil {
		t.Fatal(err)
	}
	loop := Loop{
		Pipeline: sampling.PipelineConfig{Method: "random", NumHypercubes: 2, NumSamples: 16, CubeSx: 8, Seed: 1, Meter: energy.NewMeter()},
		Arch:     train.ArchSpec{Arch: "mlp_transformer", Hidden: 8},
		Train:    train.Config{Epochs: 1, Batch: 2, Seed: 1},
	}
	cubes, err := loop.Subsample(t.Context(), d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loop.Fit(t.Context(), other, cubes); err == nil {
		t.Fatal("Fit on GESTS-2048 over SST-P1F4's samples must fail")
	}
	f, n := d.Snapshots[0], len(cubes[0].LocalIdx)
	for name, spoil := range map[string]func(cs *sampling.CubeSample){
		"snapshot out of range": func(cs *sampling.CubeSample) { cs.Snapshot = len(d.Snapshots) },
		"negative snapshot":     func(cs *sampling.CubeSample) { cs.Snapshot = -1 },
		"cube outside the grid": func(cs *sampling.CubeSample) { cs.Cube.I0 = f.Nx - cs.Cube.Sx + 1 },
		"point outside the cube": func(cs *sampling.CubeSample) {
			cs.LocalIdx = append([]int{cs.Cube.NPoints()}, cs.LocalIdx[1:]...)
		},
		"feature width":   func(cs *sampling.CubeSample) { cs.Features = sampling.SlabRows(n, len(d.InputVars)+1) },
		"target width":    func(cs *sampling.CubeSample) { cs.Targets = sampling.SlabRows(n, len(d.OutputVars)-1) },
		"missing targets": func(cs *sampling.CubeSample) { cs.Targets = cs.Targets[1:] },
	} {
		spoilt := append([]sampling.CubeSample(nil), cubes...)
		spoil(&spoilt[len(spoilt)-1])
		if _, err := loop.Fit(t.Context(), d, spoilt); err == nil {
			t.Errorf("%s: Fit succeeded", name)
		}
	}
}

// TestScaleText: -scale and the API's scale field accept exactly small
// (or nothing) and large, in any case; a typo is an error, never small.
func TestScaleText(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Scale
		ok   bool
	}{
		{"", Small, true}, {"small", Small, true}, {"SMALL", Small, true},
		{"large", Large, true}, {"Large", Large, true},
		{"bogus", Small, false}, {"larg", Small, false}, {" large", Small, false}, {"1", Small, false},
	} {
		s := Large
		if tc.want == Large {
			s = Small
		}
		err := s.UnmarshalText([]byte(tc.in))
		if (err == nil) != tc.ok {
			t.Errorf("scale %q: err = %v, want ok = %v", tc.in, err, tc.ok)
		}
		if tc.ok && s != tc.want {
			t.Errorf("scale %q parsed to %d, want %d", tc.in, s, tc.want)
		}
	}
	for s, want := range map[Scale]string{Small: "small", Large: "large"} {
		if b, err := s.MarshalText(); err != nil || string(b) != want {
			t.Errorf("scale %d marshals to %q, %v; want %q", s, b, err, want)
		}
	}
}
