// sickle-serve exposes SICKLE-Go online: trained surrogates behind a
// micro-batched inference endpoint and the subsampling pipeline behind an
// LRU-cached dataset resolver. See internal/serve for the subsystem.
//
// Usage:
//
//	sickle-serve -addr :8080 -demo
//	sickle-serve -name drag -arch lstm -ckpt model.sknn -in-dim 8 -out-dim 1 \
//	             -input-shape 5,8
//
// Routes (v2, the current surface — typed pkg/api error envelope):
//
//	POST /v2/infer          micro-batched inference
//	POST /v2/subsample      synchronous two-phase pipeline
//	GET|POST /v2/models     list / register-or-hot-swap models
//	POST /v2/jobs           submit an async subsample or train job
//	GET /v2/jobs[/{id}]     list / poll jobs
//	GET /v2/jobs/{id}/result  fetch a succeeded job's output
//	DELETE /v2/jobs/{id}    cancel (propagates through context into the
//	                        sampling/training loops)
//	GET /api/version        version negotiation handshake
//
// GET /healthz and GET /metrics are unversioned. GET /debug/traces[/{id}]
// serves the span ring, and -debug-addr starts a net/http/pprof sidecar
// listener. Use pkg/client as the Go SDK.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/tier"
	"repro/internal/train"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data-dir", "", "durability directory: WAL + results + dedup cache; jobs survive restarts (\"\" = in-memory)")

	name := flag.String("name", "", "register a model under this name at startup")
	arch := flag.String("arch", "", "architecture: lstm|mlp_transformer|cnn_transformer|matey")
	ckpt := flag.String("ckpt", "", "checkpoint written by sickle-train -ckpt-out")
	inDim := flag.Int("in-dim", 0, "model input width / input variables")
	hidden := flag.Int("hidden", 16, "hidden size / model dim")
	heads := flag.Int("heads", 2, "attention heads")
	outDim := flag.Int("out-dim", 0, "model output width / output variables")
	edge := flag.Int("edge", 0, "decoder cube edge (transformers/MATEY)")
	inputShape := flag.String("input-shape", "", "per-example input shape, comma-separated (e.g. 1,64,4)")

	demo := flag.Bool("demo", false, "train a small surrogate at startup and register it as \"demo\"")
	shared := tier.BindFlags(flag.CommandLine)
	flag.Parse()

	lg := shared.Logger()
	fatal := func(msg string, err error) {
		lg.Error(msg, "err", err)
		os.Exit(1)
	}

	s, err := serve.NewServer(serve.Config{Addr: *addr, DataDir: *dataDir, Logger: lg, SLOs: shared.SLOs})
	if err != nil {
		fatal("start server", err)
	}

	s.ServeDebug(shared.DebugAddr)

	if *name != "" {
		spec := train.ArchSpec{Arch: *arch, InDim: *inDim, Hidden: *hidden,
			Heads: *heads, OutDim: *outDim, Edge: *edge}
		shape, err := parseShape(*inputShape)
		if err != nil {
			fatal("parse -input-shape", err)
		}
		if _, err := s.Registry().Register(*name, spec, *ckpt, shape, serve.DefaultReplicas); err != nil {
			fatal("register model", err)
		}
		lg.Info("registered model", "name", *name, "arch", spec.Arch, "ckpt", *ckpt)
	}
	if *demo {
		if err := registerDemoModel(s, lg); err != nil {
			fatal("register demo model", err)
		}
	}

	// Graceful shutdown on SIGINT/SIGTERM: stop accepting, drain in-flight
	// batches, then exit.
	done := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		lg.Info("draining")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			lg.Error("shutdown", "err", err)
		}
		close(done)
	}()

	lg.Info("sickle-serve listening", "addr", *addr)
	if err := s.ListenAndServe(); err != nil {
		fatal("listen", err)
	}
	<-done
}

func parseShape(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad -input-shape %q", s)
		}
		out[i] = v
	}
	return out, nil
}

// registerDemoModel trains the shared toy surrogate (serve.TrainDemo) and
// registers it as "demo", so a bare `sickle-serve -demo` answers /v2/infer
// as soon as it is up.
func registerDemoModel(s *serve.Server, lg *slog.Logger) error {
	dm, err := serve.TrainDemo(context.Background())
	if err != nil {
		return err
	}
	if err := dm.Register(s, "demo", serve.DefaultReplicas); err != nil {
		return err
	}
	lg.Info("demo model registered", "params", dm.Params,
		"test_loss", dm.FinalLoss, "ckpt", dm.Checkpoint)
	return nil
}
