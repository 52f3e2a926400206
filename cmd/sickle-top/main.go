// sickle-top is the flight-recorder console: it polls one serving target
// (a sickle-shard router, or a bare sickle-serve) over the /healthz,
// /debug/slo, /debug/events, and /debug/history endpoints and renders a
// live plain-ANSI dashboard — per-replica QPS, p50/p99 latency, error
// rate, SLO burn rates, and the event tail. Pointed at a router it shows
// the whole fleet (the router scatter-gathers its replicas' history and
// events).
//
// Usage:
//
//	sickle-top -target http://localhost:8090            # live dashboard, 2s refresh
//	sickle-top -target http://localhost:8090 -once      # one JSON snapshot (CI)
//	sickle-top -target http://localhost:8090 -once -text  # one rendered frame
//
// -once exits 0 even when the target is degraded; pipe the JSON through
// your own assertions. See internal/obs/top for the collection library.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs/top"
	"repro/pkg/client"
)

func main() {
	target := flag.String("target", "http://localhost:8090", "base URL of a sickle-shard router or sickle-serve")
	interval := flag.Duration("interval", 2*time.Second, "refresh period in live mode")
	window := flag.Duration("window", top.DefaultWindow, "trailing window for QPS/latency/error-rate stats")
	once := flag.Bool("once", false, "collect one snapshot, print it, and exit (for CI)")
	text := flag.Bool("text", false, "with -once, print the rendered dashboard instead of JSON")
	noColor := flag.Bool("no-color", false, "disable ANSI colors")
	timeout := flag.Duration("timeout", 5*time.Second, "per-endpoint request timeout")
	flag.Parse()

	base := strings.TrimRight(*target, "/")
	c := client.New(base,
		client.WithHTTPClient(&http.Client{Timeout: *timeout}),
		client.WithRetry(0, 0))
	color := !*noColor

	if *once {
		ctx, cancel := context.WithTimeout(context.Background(), 4**timeout)
		defer cancel()
		snap := top.Collect(ctx, c, base, *window)
		if *text {
			fmt.Print(top.Render(snap, color))
		} else {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(snap); err != nil {
				fmt.Fprintln(os.Stderr, "sickle-top: encode:", err)
				os.Exit(1)
			}
		}
		// A snapshot that reached no endpoint at all is a failure CI should
		// see; partial answers are not.
		if snap.Health == nil && snap.History == nil && snap.SLO == nil && snap.Events == nil {
			fmt.Fprintln(os.Stderr, "sickle-top: target unreachable:", strings.Join(snap.Errors, "; "))
			os.Exit(1)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	t := time.NewTicker(*interval)
	defer t.Stop()
	for {
		cctx, cancel := context.WithTimeout(ctx, *interval)
		snap := top.Collect(cctx, c, base, *window)
		cancel()
		// Home the cursor and clear: full-frame redraws without flicker on
		// any VT100-compatible terminal.
		fmt.Print("\x1b[H\x1b[2J" + top.Render(snap, color))
		select {
		case <-ctx.Done():
			fmt.Println()
			return
		case <-t.C:
		}
	}
}
