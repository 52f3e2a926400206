// sickle-bench regenerates the paper's tables and figures. Each experiment
// prints the rows/series the paper reports; Fig. 3 additionally writes PGM
// sampling visualizations.
//
// Usage:
//
//	sickle-bench -exp table1|fig3|fig4|fig5|fig6|fig7|fig8|fig9|all
//	             [-scale small|large] [-outdir plots]
//
// Nothing else lives here. Performance numbers (kernels, train step, solvers,
// streaming, the online path) are the bench/ ledger's (bench/README.md); the
// serving tiers' behaviour is accepted by the e2e suites under `go test ./...`
// and their processes by .github/smoke.sh.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/sickle"
	"repro/internal/viz"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (table1, fig3..fig9, all)")
	scale := sickle.Small
	flag.TextVar(&scale, "scale", scale, "dataset scale: small|large")
	outdir := flag.String("outdir", "plots", "directory for figure artifacts")
	flag.Parse()

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("==== %s ====\n", name)
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println()
	}

	run("table1", func() error {
		rows, err := sickle.Table1(scale)
		if err != nil {
			return err
		}
		fmt.Print(sickle.FormatTable1(rows))
		return nil
	})

	run("fig3", func() error {
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
	})

	run("fig4", func() error {
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
	})

	run("fig5", func() error {
		rows, err := sickle.Fig5(scale)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %-10s %12s %12s\n", "dataset", "method", "KL(full‖s)", "tailCover")
		for _, r := range rows {
			fmt.Printf("%-12s %-10s %12.4f %12.3f\n", r.Dataset, r.Method, r.KLtoFull, r.TailCover)
		}
		return nil
	})

	run("fig6", func() error {
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
	})

	run("fig7", func() error {
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
	})

	run("fig8", func() error {
		rows, err := sickle.Fig8(context.Background(), scale, sickle.Fig8Config{})
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Println(sickle.EnergyReportString(r.Report))
		}
		return nil
	})

	run("fig9", func() error {
		rows, err := sickle.Fig9(context.Background(), scale, sickle.Fig9Config{})
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Println(sickle.EnergyReportString(r.Report))
		}
		return nil
	})
}
