package obs

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/tensor"
)

// memStatsCache throttles runtime.ReadMemStats, which stops the world:
// all runtime gauges registered by RegisterRuntime share one snapshot
// refreshed at most once per second, so a tight scrape loop cannot turn
// introspection into a GC hazard.
type memStatsCache struct {
	mu   sync.Mutex
	at   time.Time
	stat runtime.MemStats
}

func (c *memStatsCache) get() runtime.MemStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if time.Since(c.at) > time.Second {
		runtime.ReadMemStats(&c.stat)
		c.at = time.Now()
	}
	return c.stat
}

// RegisterRuntime adds process-level introspection gauges to reg:
//
//	sickle_build_info{go_version}         always 1; carries the toolchain
//	sickle_process_start_time_seconds     unix time this call ran
//	sickle_go_goroutines                  live goroutine count
//	sickle_go_heap_alloc_bytes            heap in use
//	sickle_go_gc_pause_seconds_total      cumulative stop-the-world pause
//	sickle_tensor_pool_workers            kernel pool size
//	sickle_tensor_pool_busy_workers       workers executing a task now
//	sickle_tensor_pool_tasks_total        tasks completed by pool workers
//
// Both serve and shard call this on their registries so every tier's
// /metrics carries the same runtime vocabulary.
func RegisterRuntime(reg *Registry) {
	start := float64(time.Now().UnixNano()) / 1e9
	cache := &memStatsCache{}

	reg.Gauge("sickle_build_info",
		"Build metadata; value is always 1.", "go_version").
		With(runtime.Version()).Set(1)
	reg.GaugeFunc("sickle_process_start_time_seconds",
		"Unix time the process started, in seconds.",
		func() float64 { return start })
	reg.GaugeFunc("sickle_go_goroutines",
		"Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("sickle_go_heap_alloc_bytes",
		"Bytes of allocated heap objects.",
		func() float64 { return float64(cache.get().HeapAlloc) })
	reg.CounterFunc("sickle_go_gc_pause_seconds_total",
		"Cumulative GC stop-the-world pause time in seconds.",
		func() float64 { return float64(cache.get().PauseTotalNs) / 1e9 })
	reg.GaugeFunc("sickle_tensor_pool_workers",
		"Workers in the process-wide tensor kernel pool (0 when serial).",
		func() float64 { w, _, _ := tensor.DefaultPool().Stats(); return float64(w) })
	reg.GaugeFunc("sickle_tensor_pool_busy_workers",
		"Tensor pool workers currently executing a task.",
		func() float64 { _, b, _ := tensor.DefaultPool().Stats(); return float64(b) })
	reg.CounterFunc("sickle_tensor_pool_tasks_total",
		"Tasks completed by tensor pool workers since process start.",
		func() float64 { _, _, n := tensor.DefaultPool().Stats(); return float64(n) })
}
