// sickle-bench regenerates the paper's tables and figures; it is the one
// place the paper's numbers come from. Each experiment prints the
// rows/series the paper reports; Fig. 3 additionally writes PGM sampling
// visualizations.
//
// Usage:
//
//	sickle-bench -exp table1|table2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|temporal|all
//	             [-scale small|large] [-outdir plots]
//
// An unknown -exp name is a usage error (exit 2). Nothing else lives here.
// Performance numbers (kernels, train step, solvers, streaming, the online
// path) are the bench/ ledger's (bench/README.md); the serving tiers'
// behaviour is accepted by the e2e suites under `go test ./...` and their
// processes by .github/smoke.sh.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/nn"
	"repro/internal/sampling"
	"repro/internal/sickle"
	"repro/internal/train"
	"repro/internal/viz"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (table1, table2, fig3..fig9, temporal, all)")
	scale := sickle.Small
	flag.TextVar(&scale, "scale", scale, "dataset scale: small|large")
	outdir := flag.String("outdir", "plots", "directory for figure artifacts")
	flag.Parse()

	experiments := []struct {
		name string
		run  func() error
	}{
		{"table1", func() error {
			rows, err := sickle.Table1(scale)
			if err != nil {
				return err
			}
			fmt.Print(sickle.FormatTable1(rows))
			return nil
		}},

		// Table 2: each architecture sized for one dataset at the Fig. 8/9
		// cube edge, the example layout it trains on and its parameters.
		{"table2", func() error {
			const edge = 16
			d, err := sickle.BuildDataset("SST-P1F4", scale)
			if err != nil {
				return err
			}
			fmt.Printf("%s, cube edge %d\n", d.Label, edge)
			fmt.Printf("%-16s %-14s %6s %6s %5s %8s\n", "arch", "layout", "inDim", "outDim", "edge", "params")
			for _, arch := range []string{"lstm", "mlp_transformer", "cnn_transformer", "matey"} {
				spec := train.ArchSpec{Arch: arch}.SizedFor(d, edge)
				m, err := spec.Build(rand.New(rand.NewSource(1)))
				if err != nil {
					return err
				}
				fmt.Printf("%-16s %-14s %6d %6d %5d %8d\n",
					spec.Arch, spec.Layout(), spec.InDim, spec.OutDim, spec.Edge, nn.ParamCount(m))
			}
			return nil
		}},

		{"fig3", func() error {
			res, f, err := sickle.Fig3(scale, 0.10)
			if err != nil {
				return err
			}
			if err := os.MkdirAll(*outdir, 0o755); err != nil {
				return err
			}
			fmt.Printf("%-8s %10s %10s %10s\n", "method", "samples", "wakeFrac", "tailCover")
			for _, r := range res {
				fmt.Printf("%-8s %10d %10.3f %10.3f\n", r.Method, r.NumSamples, r.WakeFrac, r.TailCover)
				img := viz.SamplesToPGM(f, "wz", 0, r.Indices)
				path := filepath.Join(*outdir, fmt.Sprintf("fig3_%s.pgm", r.Method))
				if err := viz.WritePGM(path, img); err != nil {
					return err
				}
				fmt.Printf("  wrote %s\n", path)
			}
			return nil
		}},

		{"fig4", func() error {
			res, err := sickle.Fig4(scale)
			if err != nil {
				return err
			}
			fmt.Printf("%-10s %14s\n", "dataset", "UIPS coverage")
			for _, r := range res {
				fmt.Printf("%-10s %14.3f\n", r.Dataset, r.Coverage)
			}
			fmt.Println("(1.0 = uniform phase-space coverage; low = the clumping of Fig. 4 right)")
			return nil
		}},

		{"fig5", func() error {
			rows, err := sickle.Fig5(scale)
			if err != nil {
				return err
			}
			fmt.Printf("%-12s %-10s %12s %12s\n", "dataset", "method", "KL(full‖s)", "tailCover")
			for _, r := range rows {
				fmt.Printf("%-12s %-10s %12.4f %12.3f\n", r.Dataset, r.Method, r.KLtoFull, r.TailCover)
			}
			return nil
		}},

		{"fig6", func() error {
			cfg := sickle.Fig6Config{}
			if scale == sickle.Small {
				cfg = sickle.Fig6Config{SampleSizes: []int{540, 1080, 2160}, Replicates: 3, Epochs: 150}
			}
			rows, err := sickle.Fig6(context.Background(), scale, cfg)
			if err != nil {
				return err
			}
			fmt.Printf("%-8s %10s %14s %14s\n", "method", "samples", "mean loss", "std loss")
			for _, r := range rows {
				fmt.Printf("%-8s %10d %14.6f %14.6f\n", r.Method, r.NumSamples, r.MeanLoss, r.StdLoss)
			}
			return nil
		}},

		{"fig7", func() error {
			rows, err := sickle.Fig7(context.Background(), scale, 512, sickle.DefaultCostModel())
			if err != nil {
				return err
			}
			fmt.Printf("%-12s %6s %10s %10s\n", "dataset", "ranks", "speedup", "efficiency")
			for _, r := range rows {
				fmt.Printf("%-12s %6d %10.2f %10.3f\n", r.Dataset, r.Ranks, r.Speedup, r.Efficiency)
			}
			fmt.Printf("knee(SST-P1F4)=%d ranks, knee(SST-P1F100)=%d ranks (efficiency >= 0.5)\n",
				sickle.KneeRanks(rows, "SST-P1F4", 0.5), sickle.KneeRanks(rows, "SST-P1F100", 0.5))
			return nil
		}},

		// Fig. 8 prints both Eq. 3 terms, sampling and training joules, for
		// every case, so Eq. 3 needs no name of its own.
		{"fig8", func() error {
			rows, err := sickle.Fig8(context.Background(), scale, sickle.Fig8Config{})
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Println(sickle.EnergyReportString(r.Report))
			}
			return nil
		}},

		{"fig9", func() error {
			rows, err := sickle.Fig9(context.Background(), scale, sickle.Fig9Config{})
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Println(sickle.EnergyReportString(r.Report))
			}
			return nil
		}},

		// §4.3 temporal selection: a snapshot is kept only when its
		// vorticity PDF differs from every kept one, so the periodic
		// shedding of OF2D keeps few.
		{"temporal", func() error {
			d, err := sickle.BuildDataset("OF2D", scale)
			if err != nil {
				return err
			}
			kept := sampling.SelectSnapshots(d, sampling.TemporalConfig{Var: "wz", Threshold: 0.02})
			fmt.Printf("OF2D kept %d/%d snapshots (wz, JS threshold 0.02): %v\n", len(kept), d.NTime(), kept)
			return nil
		}},
	}

	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	if *exp != "all" && !slices.Contains(names, *exp) {
		fmt.Fprintf(os.Stderr, "sickle-bench: unknown -exp %q (want %s|all)\n", *exp, strings.Join(names, "|"))
		os.Exit(2)
	}
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		fmt.Printf("==== %s ====\n", e.name)
		if err := e.run(); err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
		fmt.Println()
	}
}
