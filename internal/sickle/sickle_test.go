package sickle

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/grid"
	"repro/internal/minimpi"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// Each paper config the tests check trains, or is timed, once: the tests of
// its claims and TestGoldenFigures' bit pins read the same rows.
var (
	fig6Small = sync.OnceValues(func() ([]Fig6Row, error) {
		return Fig6(context.Background(), Small, Fig6Config{SampleSizes: []int{200}, Replicates: 2, Epochs: 15})
	})
	fig8Small = sync.OnceValues(func() ([]Fig8Case, error) {
		return Fig8(context.Background(), Small, Fig8Config{Datasets: []string{"SST-P1F4"}, Epochs: 3, CubeEdge: 8})
	})
	fig9Small = sync.OnceValues(func() ([]Fig9Row, error) {
		return Fig9(context.Background(), Small, Fig9Config{Epochs: 2, CubeEdge: 8})
	})
	fig7Small = sync.OnceValues(func() ([]fig7Case, error) {
		return fig7Measure(context.Background(), Small)
	})
)

func TestBuildAllDatasets(t *testing.T) {
	for _, name := range DatasetNames() {
		d, err := BuildDataset(name, Small)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Label != name {
			t.Fatalf("label %q, want %q", d.Label, name)
		}
	}
	if _, err := BuildDataset("nope", Small); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestBuildDatasetMemoized(t *testing.T) {
	a, _ := BuildDataset("GESTS-2048", Small)
	b, _ := BuildDataset("GESTS-2048", Small)
	if a != b {
		t.Fatal("dataset not memoized")
	}
}

func TestTable1(t *testing.T) {
	rows, err := Table1(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	s := FormatTable1(rows)
	for _, want := range []string{"TC2D", "OF2D", "SST-P1F4", "SST-P1F100", "GESTS-2048", "GESTS-8192"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table missing %s:\n%s", want, s)
		}
	}
	// SST-P1F100 must be the anisotropic rhoy/ee case of Table 1.
	for _, r := range rows {
		if r.Label == "SST-P1F100" && (r.KCV != "rhoy" || r.Output != "ee") {
			t.Fatalf("P1F100 metadata wrong: %+v", r)
		}
	}
}

func TestFig3WakeCapture(t *testing.T) {
	res, f, err := Fig3(Small, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if f == nil || len(res) != 4 {
		t.Fatalf("got %d methods", len(res))
	}
	byMethod := map[string]Fig3Result{}
	for _, r := range res {
		byMethod[r.Method] = r
	}
	// MaxEnt should capture the wake (vorticity tails) better than random —
	// the paper's Fig. 1/3 message.
	if byMethod["maxent"].TailCover <= byMethod["random"].TailCover {
		t.Fatalf("maxent tail coverage %v <= random %v",
			byMethod["maxent"].TailCover, byMethod["random"].TailCover)
	}
	if byMethod["full"].NumSamples <= byMethod["random"].NumSamples {
		t.Fatal("full must keep all points")
	}
}

func TestFig4UIPSClumping(t *testing.T) {
	res, err := Fig4(Small)
	if err != nil {
		t.Fatal(err)
	}
	var tc2d, sst float64
	for _, r := range res {
		switch r.Dataset {
		case "TC2D":
			tc2d = r.Coverage
		case "SST-P1F4":
			sst = r.Coverage
		}
	}
	// UIPS covers 2-D phase space much more uniformly than the 3-D
	// anisotropic case (the paper's Fig. 4).
	if !(tc2d > sst) {
		t.Fatalf("UIPS coverage: TC2D %v should exceed SST %v", tc2d, sst)
	}
}

func TestFig5TailCoverage(t *testing.T) {
	rows, err := Fig5(Small)
	if err != nil {
		t.Fatal(err)
	}
	get := func(ds, m string) Fig5Row {
		for _, r := range rows {
			if r.Dataset == ds && r.Method == m {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", ds, m)
		return Fig5Row{}
	}
	// On the anisotropic SST case, MaxEnt and UIPS must beat random in the
	// tails (Fig. 5b).
	sstRand := get("SST-P1F4", "random")
	if get("SST-P1F4", "maxent").TailCover <= sstRand.TailCover {
		t.Fatal("maxent should beat random tails on SST")
	}
	if get("SST-P1F4", "uips").TailCover <= sstRand.TailCover {
		t.Fatal("uips should beat random tails on SST")
	}
	// Random tracks the full PDF most closely by construction.
	if get("GESTS-2048", "random").KLtoFull > get("GESTS-2048", "maxent").KLtoFull {
		t.Fatal("random should have lowest KL to the full PDF")
	}
}

func TestFig7ScalabilityShape(t *testing.T) {
	cases, err := fig7Small()
	if err != nil {
		t.Fatal(err)
	}
	rows := fig7Model(cases, 512, DefaultCostModel())
	// Both datasets: speedup at 2 ranks must be >1; efficiency decays with
	// rank count; the large dataset scales further than the small one.
	kneeSmallDS := KneeRanks(rows, "SST-P1F4", 0.5)
	kneeLargeDS := KneeRanks(rows, "SST-P1F100", 0.5)
	if kneeLargeDS <= kneeSmallDS {
		t.Fatalf("P1F100 knee (%d) should exceed P1F4 knee (%d)", kneeLargeDS, kneeSmallDS)
	}
	for _, r := range rows {
		if r.Ranks == 1 && (r.Speedup < 0.99 || r.Speedup > 1.01) {
			t.Fatalf("speedup at 1 rank = %v", r.Speedup)
		}
		if r.Speedup > float64(r.Ranks)*1.01 {
			t.Fatalf("superlinear speedup %v at %d ranks", r.Speedup, r.Ranks)
		}
	}
}

func TestFig6SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	rows, err := fig6Small()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.MeanLoss <= 0 {
			t.Fatalf("%s: non-positive loss %v", r.Method, r.MeanLoss)
		}
	}
}

func TestFig8SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	rows, err := fig8Small()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d cases, want 5", len(rows))
	}
	var fullE, maxentE float64
	for _, r := range rows {
		if r.Report.EvalLoss <= 0 || r.Report.TotalJoules() <= 0 {
			t.Fatalf("%s: loss %v, %v J charged", r.Case, r.Report.EvalLoss, r.Report.TotalJoules())
		}
		switch r.Case {
		case "Hrandom-Xfull":
			fullE = r.Report.TrainJoules
		case "Hmaxent-Xmaxent":
			maxentE = r.Report.TrainJoules
		}
	}
	// The headline result: training on full hypercubes costs far more
	// energy than training on the 10% MaxEnt subsample.
	if fullE < 3*maxentE {
		t.Fatalf("full-sampling energy %v should dwarf maxent %v", fullE, maxentE)
	}
}

func TestFig9SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	rows, err := fig9Small()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	methods := map[string]bool{}
	for _, r := range rows {
		methods[r.Method] = true
		if r.Report.EvalLoss < 0 {
			t.Fatalf("bad loss %v", r.Report.EvalLoss)
		}
	}
	for _, m := range []string{"uniform", "random", "maxent"} {
		if !methods[m] {
			t.Fatalf("method %s missing", m)
		}
	}
}

func TestEnergyReportString(t *testing.T) {
	s := EnergyReportString(energy.Report{Label: "MATEY/random", SampleJoules: 1500, TrainJoules: 2500, EvalLoss: 0.25})
	want := "MATEY/random           loss=0.2500  sample=1.5 kJ  train=2.5 kJ  total=4 kJ"
	if s != want {
		t.Fatalf("report string\n%q, want\n%q", s, want)
	}
}

// kcvTailCover selects a tenth of SST-P1F4's last KCV snapshot with s and
// returns the selection's tail coverage.
func kcvTailCover(t *testing.T, s sampling.PointSampler, seed int64) float64 {
	t.Helper()
	d, err := BuildDataset("SST-P1F4", Small)
	if err != nil {
		t.Fatal(err)
	}
	full := append([]float64(nil), d.Snapshots[d.NTime()-1].Var(d.ClusterVar)...)
	data := &sampling.Data{Features: cluster.Scalar1D(full), ClusterVar: full}
	idx := s.SelectPoints(data, len(full)/10, rand.New(rand.NewSource(seed)))
	vals := make([]float64, len(idx))
	for r, i := range idx {
		vals[r] = full[i]
	}
	return stats.TailCoverage(full, vals, 0.02)
}

func TestAblateClusterCount(t *testing.T) {
	k2 := kcvTailCover(t, sampling.MaxEnt{NumClusters: 2}, 1)
	k10 := kcvTailCover(t, sampling.MaxEnt{NumClusters: 10}, 1)
	if k2 <= 0 {
		t.Fatalf("k=2: empty tails")
	}
	// Enough clusters must beat the degenerate 2-cluster case on tails.
	if k10 <= k2 {
		t.Fatalf("k=10 tail coverage %v should exceed k=2's %v", k10, k2)
	}
}

func TestAblateUIPSBins(t *testing.T) {
	// More bins flatten the 1-D PDF harder: tail coverage grows.
	coarse := kcvTailCover(t, sampling.UIPS{Bins: 4}, 2)
	if fine := kcvTailCover(t, sampling.UIPS{Bins: 100}, 2); fine <= coarse {
		t.Fatalf("100-bin tails %v should exceed 4-bin %v", fine, coarse)
	}
}

func TestAblateCubeSize(t *testing.T) {
	d, err := BuildDataset("SST-P1F4", Small)
	if err != nil {
		t.Fatal(err)
	}
	f := d.Snapshots[0]
	// Work units decrease monotonically with cube edge.
	prev := len(grid.Tile(f, 4, 4, 4))
	for e := 8; e <= f.Nz; e *= 2 {
		n := len(grid.Tile(f, e, e, e))
		if n >= prev {
			t.Fatalf("%d cubes at edge %d, %d at edge %d: count must shrink with edge", n, e, prev, e/2)
		}
		prev = n
	}
}

func TestAblateCommLatency(t *testing.T) {
	cases, err := fig7Small()
	if err != nil {
		t.Fatal(err)
	}
	// Higher latency cannot increase the knee rank; both networks model the
	// same serial measurement.
	knee := func(lat float64) int {
		return KneeRanks(fig7Model(cases, 512, minimpi.CostModel{Latency: lat, Bandwidth: 10e9}), "SST-P1F100", 0.5)
	}
	if fast, slow := knee(2e-6), knee(200e-6); slow > fast {
		t.Fatalf("knee grew with latency: %v -> %v", fast, slow)
	}
}
