package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runChild runs one workload in a fresh process of this same binary —
// every run pays its own set-up and starts from a cold heap — copies the
// child's report to echo and returns its final JSON object.
func runChild(ctx context.Context, name string, seed int64, seconds float64, trace int, echo io.Writer) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe,
		"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, echo)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	out := &outcome{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), out); err != nil {
		return nil, fmt.Errorf("%s: last line is not the result object: %w", name, err)
	}
	if !out.Correct {
		return out, fmt.Errorf("%s: run was not correct (%d of %d ops failed)", name, out.Failed, out.Attempted)
	}
	return out, nil
}

// runAA is the A/A check: sets full sets of the same binary, set s with
// seed+s as the driver varies it. Per metric × workload it prints the
// set values' quartiles, their spread (interquartile distance over the
// median, the driver's statistic) and the largest relative deviation of
// any set from the median, and fails if that deviation exceeds the
// metric's bound.
func runAA(ctx context.Context, sets int, seed int64, seconds float64) error {
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	for s := 0; s < sets; s++ {
		for _, def := range workloads {
			fmt.Printf("--- set %d/%d  %s\n", s+1, sets, def.name)
			out, err := runChild(ctx, def.name, seed+int64(s), seconds, 0, io.Discard)
			if err != nil {
				return err
			}
			if values[def.name] == nil {
				values[def.name] = map[string][]float64{}
			}
			for name, m := range out.Metrics {
				values[def.name][name] = append(values[def.name][name], m.Value)
			}
		}
	}
	fmt.Printf("\n%-14s %-17s %12s %12s %12s %8s %8s %6s\n",
		"workload", "metric", "q1", "median", "q3", "spread", "max dev", "bound")
	var over []string
	for _, def := range workloads {
		for _, m := range endToEnd {
			xs := values[def.name][m.Name]
			q1, q2, q3 := quartiles(xs)
			dev := 0.0
			for _, x := range xs {
				dev = max(dev, math.Abs(x-q2)/math.Abs(q2))
			}
			fmt.Printf("%-14s %-17s %12.5g %12.5g %12.5g %8.4f %8.4f %6.3f\n",
				def.name, m.Name, q1, q2, q3, spread(xs), dev, m.Bound)
			if dev > m.Bound {
				over = append(over, def.name+"/"+m.Name)
			}
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("A/A deviation exceeds the bound on %s", strings.Join(over, ", "))
	}
	return nil
}
