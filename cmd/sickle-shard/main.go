// sickle-shard scales SICKLE-Go serving horizontally: a consistent-hash
// router that fronts N sickle-serve backends and speaks the same pkg/api
// surface, so pkg/client works against it unchanged. Infer/subsample
// requests route by model/dataset hash with bounded failover when a backend
// is unreachable, overloaded, or draining; model listings and the version
// handshake scatter-gather; jobs stick to the backend that accepted them. A
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
//	sickle-shard -case case.yaml          # shard: section
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
	"cmp"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/tier"
)

func main() {
	addr := flag.String("addr", "", "listen address (default :8090 or the case file's shard.addr)")
	backends := flag.String("backends", "", "comma-separated backend base URLs")
	caseFile := flag.String("case", "", "YAML case file with an optional shard: section")
	probeMS := flag.Int("probe-ms", 0, "health-probe period in ms (default 1000)")
	failAfter := flag.Int("fail-after", 0, "consecutive failures before ejecting a replica (default 2)")
	maxFailover := flag.Int("max-failover", 0, "extra ring nodes tried after the primary (default 2)")
	replication := flag.Int("replication", 0, "owner-set size K for keyed job submissions (default 1)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per replica on the hash ring (default 160)")
	demo := flag.Bool("demo", false, "spawn in-process replicas sharing a freshly trained demo model")
	demoReplicas := flag.Int("demo-replicas", 3, "in-process replicas to spawn with -demo")
	demoDataDir := flag.String("demo-data-dir", "", "per-replica durability dirs <dir>/r<i> for -demo replicas (\"\" = in-memory)")
	shared := tier.BindFlags(flag.CommandLine)
	flag.Parse()

	lg := shared.Logger()
	fatal := func(msg string, kv ...any) {
		lg.Error(msg, kv...)
		os.Exit(1)
	}

	// Unset case keys are zero, so without -case the zero Case below is
	// exactly "every default".
	c := &config.Case{}
	if *caseFile != "" {
		var err error
		if c, err = config.LoadCase(*caseFile); err != nil {
			fatal("load case file", "err", err)
		}
	}
	rec, err := shared.Recorder(c.Obs, c.Shard.DebugAddr)
	if err != nil {
		fatal("parse SLO specs", "err", err)
	}
	// A flag that was given (non-zero) wins over the case file's key.
	cfg := shard.Config{
		Addr:        cmp.Or(*addr, c.Shard.Addr),
		URLs:        c.Shard.Replicas,
		VNodes:      cmp.Or(*vnodes, c.Shard.VNodes),
		ProbeEvery:  time.Duration(cmp.Or(*probeMS, c.Shard.ProbeMS)) * time.Millisecond,
		FailAfter:   cmp.Or(*failAfter, c.Shard.FailAfter),
		MaxFailover: cmp.Or(*maxFailover, c.Shard.MaxFailover),
		Replication: cmp.Or(*replication, c.Shard.Replication),
		Logger:      lg,

		HistoryInterval: rec.HistoryInterval,
		HistoryCapacity: rec.HistoryCapacity,
		EventCapacity:   rec.EventCapacity,
		SLOs:            rec.SLOs,
	}
	if *backends != "" {
		cfg.URLs = strings.Split(*backends, ",")
	}

	var inprocs []*serve.InProc
	if *demo {
		if len(cfg.URLs) > 0 {
			fatal("use either -demo or -backends/-case replicas, not both")
		}
		if *demoReplicas < 1 {
			fatal("-demo-replicas must be >= 1")
		}
		lg.Info("training demo model", "replicas", *demoReplicas)
		dm, err := serve.TrainDemo(context.Background())
		if err != nil {
			fatal("train demo model", "err", err)
		}
		lg.Info("demo model trained", "params", dm.Params, "test_loss", dm.FinalLoss)
		for i := 0; i < *demoReplicas; i++ {
			rcfg := serve.Config{}
			if *demoDataDir != "" {
				rcfg.DataDir = filepath.Join(*demoDataDir, fmt.Sprintf("r%d", i))
			}
			p, err := serve.StartInProc(rcfg)
			if err != nil {
				fatal("start in-process replica", "err", err)
			}
			if err := dm.Register(p.Server, "demo", 2); err != nil {
				fatal("register demo on replica", "err", err)
			}
			inprocs = append(inprocs, p)
			cfg.URLs = append(cfg.URLs, p.URL)
			lg.Info("replica serving demo", "replica", i, "url", p.URL)
		}
	}
	if len(cfg.URLs) == 0 {
		fatal("no backends: pass -backends, a -case shard: section, or -demo")
	}

	rt, err := shard.NewRouter(cfg)
	if err != nil {
		fatal("build router", "err", err)
	}
	rt.Start()
	rt.ServeDebug(rec.DebugAddr)
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
