package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hostInfo is the fingerprint printed with every run: numbers from two
// hosts are not comparable, and the README's tables name theirs.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	TmpDir     string `json:"tmp_dir"`
	Tmpfs      bool   `json:"tmpfs"`
}

func readHost(tmp string, tmpfs bool) hostInfo {
	h := hostInfo{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), TmpDir: tmp, Tmpfs: tmpfs}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// makeTmp creates the directory every file of the run goes under (WAL,
// CAS blobs, .skl shards, checkpoints): on /dev/shm when that is a
// writable directory, else under the working directory. Disk latency is
// not a property of the program under test, and per-append fsync to a
// shared disk was the main noise source of the earlier attempts.
func makeTmp() (dir string, tmpfs bool, err error) {
	if dir, err = os.MkdirTemp("/dev/shm", "sickle-bench-"); err == nil {
		return dir, true, nil
	}
	base := filepath.Join(".bench_build", "tmp")
	if err = os.MkdirAll(base, 0o755); err != nil {
		return "", false, err
	}
	dir, err = os.MkdirTemp(base, "sickle-bench-")
	if err != nil {
		return "", false, err
	}
	dir, err = filepath.Abs(dir)
	return dir, false, err
}

// env is what set-up hands a workload.
type env struct {
	seed    int64
	dir     string    // private scratch directory, removed when the run ends
	clients int       // concurrent callers: never more than nproc
	rec     *recorder // nil unless this is a traced run
}

// workload is one set-up serving numbered ops. The op sequence is a pure
// function of the seed and the op index, so a traced run repeats the
// untraced run's ops.
type workload interface {
	// op runs op i, then checks its output; an op whose check fails
	// returns an error and counts as failed. latency covers the calls into
	// the program, not the check. rec is nil when tracing is off.
	op(ctx context.Context, i int, rec *recorder) (latency time.Duration, err error)
	// traceStart runs just before the traced window, traceEnd just after:
	// counter scrapes and probes, recorded into rec.
	traceStart(ctx context.Context) error
	traceEnd(ctx context.Context, rec *recorder) error
	close()
}

// workloadDef registers a workload. Ops run in whole blocks so that a run
// always ends on a complete pattern (all eight seeds, an exact 80/10/10
// job mix) however many blocks fit in the time given.
type workloadDef struct {
	name    string
	why     string
	block   int
	warmup  int // warm-up ops: part of set-up, a multiple of block
	clients int // callers the workload is defined with (capped at nproc)
	setup   func(ctx context.Context, e *env) (workload, error)
}

var workloads = []workloadDef{paperLoopDef, insituStreamDef, onlineInferDef, onlineJobsDef}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// mix is a splitmix64 step over (seed, i, k): the op generators' only
// source of randomness, so op i's inputs are a pure function of the seed.
func mix(seed int64, i, k int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + uint64(k)*0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	at         time.Time
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
	}
}

// rssPeakMiB is VmHWM, the process's resident-set high-water mark.
func rssPeakMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(v)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// window is one phase's outcome: warm-up, the measured window, or the
// traced window.
type window struct {
	attempted, failed int
	latMS             []float64 // successful ops only
	wall              time.Duration
	cpu               time.Duration
	mallocs           uint64
	allocBytes        uint64
	firstErr          error
}

func (w *window) ok() int { return w.attempted - w.failed }

func (w *window) metrics() map[string]float64 {
	lat := sortedCopy(w.latMS)
	n := float64(w.ok())
	return map[string]float64{
		"ops_per_s":        ratio(n, w.wall.Seconds()),
		"op_p50_ms":        quantile(lat, 0.5),
		"op_p90_ms":        quantile(lat, 0.9),
		"cpu_ms_per_op":    ratio(float64(w.cpu)/1e6, n),
		"allocs_per_op":    ratio(float64(w.mallocs), n),
		"alloc_kib_per_op": ratio(float64(w.allocBytes)/1024, n),
	}
}

// runOps drives a closed loop: each of the callers takes the next op
// index, runs it, and only then takes another. more is asked once per
// block, with the ops handed out so far, and ends the phase by returning
// false. Op indices continue from first.
func runOps(ctx context.Context, wl workload, rec *recorder, clients, block, first int, more func(done int) bool) window {
	var (
		mu    sync.Mutex
		next  = first
		limit = first
		win   window
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next == limit {
			if !more(next - first) {
				return 0, false
			}
			limit += block
		}
		next++
		return next - 1, true
	}
	runtime.GC() // one collection before the window, so each starts from a similar heap
	before := readUsage()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				lat, err := wl.op(ctx, i, rec)
				mu.Lock()
				win.attempted++
				if err != nil {
					win.failed++
					if win.firstErr == nil {
						win.firstErr = fmt.Errorf("op %d: %w", i, err)
					}
				} else {
					win.latMS = append(win.latMS, float64(lat)/1e6)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	after := readUsage()
	win.wall = after.at.Sub(before.at)
	win.cpu = after.cpu - before.cpu
	win.mallocs = after.mallocs - before.mallocs
	win.allocBytes = after.allocBytes - before.allocBytes
	return win
}

// untilDeadline ends a phase at the first block boundary after the given
// number of seconds.
func untilDeadline(seconds float64) func(int) bool {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	return func(int) bool { return time.Now().Before(deadline) }
}

// result is one run's outcome, ready to print.
type result struct {
	host      hostInfo
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64 // end-to-end (trace off) or per-layer (trace on)
	phases    []string           // one human-readable line per phase
}

// runWorkload is one run: set-up (with warm-up ops), then the measured
// window with tracing off; a traced run spends the first 30 % of its time
// on an untraced window, to have the rate tracing is compared against, and
// the rest on the traced one.
func runWorkload(ctx context.Context, def workloadDef, seed int64, seconds float64, traced bool, traceOut string) (*result, error) {
	dir, tmpfs, err := makeTmp()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// serve.TrainDemo-style code writes its checkpoints to os.TempDir().
	if err := os.Setenv("TMPDIR", dir); err != nil {
		return nil, err
	}
	res := &result{host: readHost(dir, tmpfs)}
	e := &env{seed: seed, dir: dir, clients: min(def.clients, runtime.NumCPU())}
	if traced {
		e.rec = newRecorder()
	}
	wl, err := def.setup(ctx, e)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	defer wl.close()

	phase := func(name string, w window) {
		res.phases = append(res.phases, fmt.Sprintf("%-9s attempted %d  succeeded %d  failed %d  wall %.2fs",
			name, w.attempted, w.ok(), w.failed, w.wall.Seconds()))
		if w.firstErr != nil {
			res.phases = append(res.phases, "          first failure: "+w.firstErr.Error())
		}
	}
	warm := runOps(ctx, wl, nil, e.clients, def.block, 0, func(done int) bool { return done < def.warmup })
	phase("warm-up", warm)
	setupS := time.Since(processStart).Seconds()
	next := warm.attempted

	if !traced {
		win := runOps(ctx, wl, nil, e.clients, def.block, next, untilDeadline(seconds))
		phase("measured", win)
		res.attempted, res.failed = win.attempted, win.failed
		res.correct = warm.failed == 0 && win.failed == 0 && win.attempted > 0
		res.metrics = win.metrics()
		res.metrics["setup_s"] = setupS
		res.metrics["rss_peak_mib"] = rssPeakMiB()
		return res, nil
	}

	base := runOps(ctx, wl, nil, e.clients, def.block, next, untilDeadline(0.3*seconds))
	phase("untraced", base)
	next += base.attempted
	if err := wl.traceStart(ctx); err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	win := runOps(ctx, wl, e.rec, e.clients, def.block, next, untilDeadline(0.7*seconds))
	phase("traced", win)
	if err := wl.traceEnd(ctx, e.rec); err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	wm := win.metrics()
	e.rec.count("ops", float64(win.ok()))
	for _, name := range []string{"ops_per_s", "op_p50_ms", "op_p90_ms", "cpu_ms_per_op"} {
		e.rec.count("window."+name, wm[name])
	}
	e.rec.count("untraced.ops_per_s", base.metrics()["ops_per_s"])

	tf := &traceFile{Host: res.host, Workload: def.name, Seed: seed, Spans: e.rec.spans, Counts: e.rec.counts}
	if traceOut != "" {
		// The table is computed from the file just written, so what a
		// later reader recomputes from it is what this run printed.
		if err := writeTraceFile(traceOut, tf); err != nil {
			return nil, err
		}
		if tf, err = readTraceFile(traceOut); err != nil {
			return nil, err
		}
	}
	res.attempted = base.attempted + win.attempted
	res.failed = base.failed + win.failed
	res.correct = warm.failed == 0 && res.failed == 0 && win.attempted > 0
	res.metrics = layerTable(tf)
	return res, nil
}
