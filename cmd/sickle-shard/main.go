// sickle-shard scales SICKLE-Go serving horizontally: a consistent-hash
// router that fronts N sickle-serve backends and speaks the same pkg/api
// surface, so pkg/client works against it unchanged. Infer/subsample
// requests route by model/dataset hash with bounded failover when a backend
// is unreachable, overloaded, or draining; model listings and the version
// handshake scatter-gather; a job's ID lists the backends that hold it. A
// health prober ejects dead backends and re-admits them when /healthz
// answers again.
//
// With -replication K (default 1), a keyed job submission's owner set is
// its K ring successors: the submission is copied to all K owners and a
// resubmitted key found anywhere in the set returns the existing job, so
// keyed submissions are exactly-once-observable fleet-wide even across
// an owner's death. Membership is elastic: replicas join (with
// warm-cache model prefetch before taking traffic) and drain out (sticky
// jobs bled to terminal states first) through the admin API on a live
// router.
//
// Usage:
//
//	sickle-shard -addr :8090 -backends http://h1:8080,http://h2:8080
//	sickle-shard -addr :8090 -demo        # 3 in-process replicas, shared demo model
//
// Routes: the full /v2 surface plus GET /api/version, GET /healthz
// (aggregated, with per-replica detail), the membership admin API
// (GET|POST /admin/replicas, DELETE /admin/replicas/{id}[?force=true]),
// GET /metrics (sickle_shard_replica_up, routed/failed/failover
// counters, owner-set and rebalance series, per-route latency
// histograms), and GET /debug/traces[/{id}] — the {id} view merges the
// router's spans with every replica's, so one request reads as one
// trace. -debug-addr starts a net/http/pprof sidecar.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/tier"
)

// demoReplicas is how many in-process replicas -demo spawns.
const demoReplicas = 3

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	backends := flag.String("backends", "", "comma-separated backend base URLs")
	replication := flag.Int("replication", 1, "owner-set size K for keyed job submissions")
	demo := flag.Bool("demo", false, "spawn 3 in-process replicas sharing a freshly trained demo model")
	demoDataDir := flag.String("demo-data-dir", "", "per-replica durability dirs <dir>/r<i> for -demo replicas (\"\" = in-memory)")
	shared := tier.BindFlags(flag.CommandLine)
	flag.Parse()

	lg := shared.Logger()
	fatal := func(msg string, kv ...any) {
		lg.Error(msg, kv...)
		os.Exit(1)
	}

	cfg := shard.Config{Addr: *addr, Replication: *replication, Logger: lg, SLOs: shared.SLOs}
	if *backends != "" {
		cfg.URLs = strings.Split(*backends, ",")
	}

	var inprocs []*serve.InProc
	if *demo {
		if len(cfg.URLs) > 0 {
			fatal("use either -demo or -backends, not both")
		}
		lg.Info("training demo model", "replicas", demoReplicas)
		dm, err := serve.TrainDemo(context.Background())
		if err != nil {
			fatal("train demo model", "err", err)
		}
		lg.Info("demo model trained", "params", dm.Params, "test_loss", dm.FinalLoss)
		for i := range demoReplicas {
			rcfg := serve.Config{}
			if *demoDataDir != "" {
				rcfg.DataDir = filepath.Join(*demoDataDir, fmt.Sprintf("r%d", i))
			}
			p, err := serve.StartInProc(rcfg)
			if err != nil {
				fatal("start in-process replica", "err", err)
			}
			if err := dm.Register(p.Server, "demo", serve.DefaultReplicas); err != nil {
				fatal("register demo on replica", "err", err)
			}
			inprocs = append(inprocs, p)
			cfg.URLs = append(cfg.URLs, p.URL)
			lg.Info("replica serving demo", "replica", i, "url", p.URL)
		}
	}
	if len(cfg.URLs) == 0 {
		fatal("no backends: pass -backends or -demo")
	}

	rt, err := shard.NewRouter(cfg)
	if err != nil {
		fatal("build router", "err", err)
	}
	rt.Start()
	rt.ServeDebug(shared.DebugAddr)
	if owner, ok := rt.ReplicaSet().Owner("demo"); ok && *demo {
		lg.Info("consistent-hash owner of demo", "replica", owner.ID, "url", owner.URL)
	}

	done := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		lg.Info("draining")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			lg.Error("shutdown", "err", err)
		}
		for i, p := range inprocs {
			if err := p.Close(ctx); err != nil {
				lg.Error("replica shutdown", "replica", i, "err", err)
			}
		}
		close(done)
	}()

	lg.Info("sickle-shard routing", "replicas", len(cfg.URLs))
	if err := rt.ListenAndServe(); err != nil {
		fatal("listen", "err", err)
	}
	<-done
}
