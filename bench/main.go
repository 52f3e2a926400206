// Command bench is the repository's end-to-end benchmark: four workloads,
// seven end-to-end metrics measured with tracing off, and a traced run
// that prints one table of per-layer metrics. BENCHMARK.json at the
// repository root describes it to the driver; README.md describes it to
// people.
//
//	go run . -workload paper-loop                 # one workload, end-to-end metrics
//	go run . -workload all                        # every workload, each in a fresh process
//	go run . -workload online-jobs -trace 1 -trace-out /tmp/jobs.trace.json
//	go run . -aa 5                                # A/A: five sets of the same binary
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
)

// runSeconds is the measured window the driver asks for: its 92 runs must
// fit in 3420 s with their set-up and two builds.
const runSeconds = 24

// outcome is the JSON object a run ends with.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "workload seed: every generated input is a pure function of it")
	seconds := flag.Float64("seconds", runSeconds, "length of the measured window")
	trace := flag.Int("trace", 0, "1 records spans around each call into a layer and prints the per-layer metrics")
	traceOut := flag.String("trace-out", "", "with -trace 1: write the spans and counts as one JSON file here")
	aa := flag.Int("aa", 0, "run N full sets of every workload and compare them against the bounds")
	describe := flag.Bool("describe", false, "print BENCHMARK.json as this binary defines it, and exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	switch {
	case *describe:
		err = json.NewEncoder(os.Stdout).Encode(describeBenchmark())
	case *aa > 0:
		err = runAA(ctx, *aa, *seed, *seconds)
	case *workloadName == "all":
		for _, def := range workloads {
			if _, err = runChild(ctx, def.name, *seed, *seconds, *trace, os.Stdout); err != nil {
				break
			}
		}
	default:
		err = runOne(ctx, *workloadName, *seed, *seconds, *trace == 1, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runOne runs one workload in this process and prints its report.
func runOne(ctx context.Context, name string, seed int64, seconds float64, traced bool, traceOut string) error {
	def, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	res, err := runWorkload(ctx, def, seed, seconds, traced, traceOut)
	if err != nil {
		return err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	h := res.host
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v\n", def.name, seed, seconds, traced)
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s; files under %s (tmpfs %v); closed loop, %d caller(s)\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.TmpDir, h.Tmpfs, min(def.clients, h.NProc))
	for _, line := range res.phases {
		fmt.Println(line)
	}
	out := outcome{Correct: res.correct, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := res.metrics[d.Name]
		fmt.Printf("  %-34s %16.6g %s\n", d.Name, v, d.Unit)
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if !traced {
		fmt.Printf("  (op_p50_ms over %d samples)\n", res.attempted-res.failed)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// benchmarkFile is BENCHMARK.json, the benchmark as the driver reads it.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDesc `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type workloadDesc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// describeBenchmark renders the tables this binary measures by, so
// BENCHMARK.json cannot drift from them (a test compares the two).
func describeBenchmark() benchmarkFile {
	b := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, workloadDesc{w.name, w.why})
	}
	return b
}
