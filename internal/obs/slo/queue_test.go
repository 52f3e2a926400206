package slo

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// TestQueueDepthWithoutQueueGauge: the shard tier names no queue gauge, so
// a queue_depth objective there sees no samples, not every other gauge of
// the registry.
func TestQueueDepthWithoutQueueGauge(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("sickle_shard_replica_up", "h", "replica").With("r0").Set(1)
	store := tsdb.NewStore("shard", reg, time.Second, 16)
	at := time.Unix(1_700_000_000, 0)
	store.Sample(at)
	e := NewEngine("shard", store, ShardMetrics, []Objective{{Kind: KindQueueDepth, Depth: 0, Target: 99}}, nil, nil)
	for _, wb := range e.evaluate(at.Add(time.Second)).Objectives[0].Windows {
		if wb.Samples != 0 || wb.BurnRate != 0 {
			t.Errorf("%s window: %g samples, burn %g; want none", wb.Window, wb.Samples, wb.BurnRate)
		}
	}
}
