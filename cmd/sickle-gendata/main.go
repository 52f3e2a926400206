// sickle-gendata generates any of the Table 1 synthetic dataset analogues
// and reports its summary row, optionally rendering a field slice for
// inspection.
//
// Usage:
//
//	sickle-gendata -dataset GESTS-2048 -scale small -pgm enstrophy.pgm -var enstrophy
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/sickle"
	"repro/internal/viz"
)

func main() {
	dataset := flag.String("dataset", "OF2D", "dataset name")
	scale := sickle.Small
	flag.TextVar(&scale, "scale", scale, "dataset scale: small|large")
	pgm := flag.String("pgm", "", "write a PGM slice of -var to this path")
	varName := flag.String("var", "", "variable to render (defaults to the cluster variable)")
	ascii := flag.Bool("ascii", false, "print an ASCII rendering")
	flag.Parse()

	d, err := sickle.BuildDataset(*dataset, scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s grid=%s snapshots=%d size=%.1f MB\n",
		d.Label, d.GridString(), d.NTime(), float64(d.SizeBytes())/1e6)
	fmt.Printf("inputs=%v outputs=%v kcv=%s\n", d.InputVars, d.OutputVars, d.ClusterVar)

	v := *varName
	if v == "" {
		v = d.ClusterVar
	}
	f := d.Snapshots[d.NTime()-1]
	if *pgm != "" {
		if err := viz.WritePGM(*pgm, viz.FieldToPGM(f, v, f.Nz/2)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%s, z=%d)\n", *pgm, v, f.Nz/2)
	}
	if *ascii {
		fmt.Print(viz.FieldToASCII(f, v, f.Nz/2, 100))
	}
}
