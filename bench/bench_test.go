package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}} {
		if got := quantile(s, c.q); !near(got, c.want) {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 3, 1, 4, 2}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 40, 80}, [3]float64{12.5, 30, 70}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{ID: 0, Start: 0, End: 100}
	children := []span{
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps the first: [10,50] counts once
		{ID: 3, Parent: 0, Start: 90, End: 120}, // reaches past the parent: only [90,100] counts
		{ID: 4, Parent: 0, Start: 35, End: 40},  // inside covered time: adds nothing
	}
	if got := selfNS(parent, children); got != 50 {
		t.Errorf("self time = %d, want 100 - 40 - 10 = 50", got)
	}
	if got := selfNS(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func TestRecorderAndLayerTable(t *testing.T) {
	var off *recorder // tracing off: everything is a no-op
	id, end := off.begin(0, -1, "op")
	end()
	off.count("x", 1)
	if id != -1 {
		t.Errorf("nil recorder handed out span %d", id)
	}

	rec := newRecorder()
	base := processStart
	op := rec.add(0, -1, "op", base, 0.100)
	rec.add(0, op, "train.fit", base, 0.080)
	rec.add(0, op, "train.eval", base.Add(80*time.Millisecond), 0.015)
	router := rec.add(0, op, "shard.router", base, 0.010)
	route := rec.add(0, -1, "shard.route", base.Add(time.Millisecond), 0.008)
	rec.setParent(route, router)
	rec.count("ops", 1)
	rec.count("train.steps", 40)
	rec.peak("stream.peak_buffered_bytes", 1<<20)
	rec.peak("stream.peak_buffered_bytes", 1<<19)

	// The table must survive the trip through the trace file.
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTraceFile(path, &traceFile{Workload: "test", Spans: rec.spans, Counts: rec.counts}); err != nil {
		t.Fatal(err)
	}
	tf, err := readTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := layerTable(tf)
	for name, want := range map[string]float64{
		"train.fit_ms_per_op":       80,
		"train.eval_ms_per_op":      15,
		"train.step_us":             2000,
		"shard.router_self_ms_p50":  2,
		"shard.route_ms_p50":        8,
		"stream.peak_buffered_mib":  1,
		"bench.span_coverage_share": 0.95,
		"serve.batch_mean":          0, // nothing recorded: reads 0
	} {
		if !near(got[name], want) {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	for _, m := range perLayer {
		if _, ok := got[m.Name]; !ok {
			t.Errorf("layerTable does not compute %s", m.Name)
		}
	}
	if len(got) != len(perLayer) {
		t.Errorf("layerTable computes %d metrics, perLayer lists %d", len(got), len(perLayer))
	}
}

const promSample1 = `# HELP sickle_requests_total Requests served, by route.
# TYPE sickle_requests_total counter
sickle_requests_total{route="/v2/infer"} 10
sickle_requests_total{route="/v2/jobs/{id}"} 4
# TYPE sickle_batch_size histogram
sickle_batch_size_bucket{le="1"} 2
sickle_batch_size_bucket{le="+Inf"} 5
sickle_batch_size_sum 17
sickle_batch_size_count 5
sickle_shard_routed_requests_total{replica="r0"} 6
sickle_shard_routed_requests_total{replica="r1"} 2
sickle_build_info{version="go1.24 linux"} 1
not a metric line
`

const promSample2 = `sickle_requests_total{route="/v2/infer"} 25
sickle_requests_total{route="/v2/jobs/{id}"} 4
sickle_batch_size_bucket{le="1"} 3
sickle_batch_size_bucket{le="+Inf"} 9
sickle_batch_size_sum 33
sickle_batch_size_count 9
sickle_shard_routed_requests_total{replica="r0"} 16
sickle_shard_routed_requests_total{replica="r1"} 12
`

func TestPromDelta(t *testing.T) {
	before, after := parseProm(promSample1), parseProm(promSample2)
	if got := before.sum("sickle_requests_total"); got != 14 {
		t.Errorf("sum over all routes = %v, want 14", got)
	}
	if got := before.sum("sickle_requests_total", `route="/v2/infer"`); got != 10 {
		t.Errorf("labelled series = %v, want 10", got)
	}
	if got := before.sum("sickle_build_info"); got != 1 {
		t.Errorf("label value with a space = %v, want 1", got)
	}
	d := promDelta{before: []promText{before, before}, after: []promText{after, after}}
	if got := d.sum("sickle_requests_total", `route="/v2/infer"`); got != 30 {
		t.Errorf("delta over two endpoints = %v, want 2 x 15", got)
	}
	if got := d.sum("sickle_batch_size_sum") / d.sum("sickle_batch_size_count"); got != 4 {
		t.Errorf("histogram mean over the window = %v, want 16/4", got)
	}
	if got := d.sum("sickle_batch_size_bucket", `le="1"`); got != 2 {
		t.Errorf("histogram bucket delta = %v, want 2", got)
	}
	if got := routedSkew(promDelta{[]promText{before}, []promText{after}}, 2); got != 1 {
		t.Errorf("routed skew = %v, want 1 (10 and 10)", got)
	}
}

func TestOpSequencesArePureFunctionsOfSeed(t *testing.T) {
	differs := false
	for i := 0; i < 500; i++ {
		if inferOpItems(7, i) != inferOpItems(7, i) || paperOpSeed(7, i) != paperOpSeed(7, i) ||
			insituOpSeed(7, i) != insituOpSeed(7, i) || !reflect.DeepEqual(jobRequest(7, i), jobRequest(7, i)) {
			t.Fatalf("op %d differs between two calls with the same seed", i)
		}
		differs = differs || inferOpItems(7, i) != inferOpItems(8, i)
		if reflect.DeepEqual(jobRequest(7, i), jobRequest(8, i)) || paperOpSeed(7, i) == paperOpSeed(8, i) {
			t.Fatalf("op %d is the same under seeds 7 and 8", i)
		}
		for _, p := range inferOpItems(7, i) {
			if p < 0 || p >= inferPool {
				t.Fatalf("op %d picks pool entry %d", i, p)
			}
		}
	}
	if !differs {
		t.Error("infer picks do not depend on the seed")
	}
}

func TestJobMixIsExactly80_10_10(t *testing.T) {
	var counts [3]int
	content := map[int64]int{} // subsample seed → op that introduced it
	keys := map[string]int{}
	for i := 0; i < 50*jobBlock; i++ {
		kind, ref := jobOp(3, i)
		counts[kind]++
		req := jobRequest(3, i)
		switch kind {
		case jobUnique:
			if ref != i {
				t.Fatalf("unique op %d refers to %d", i, ref)
			}
			if _, seen := content[req.Subsample.Seed]; seen {
				t.Fatalf("unique op %d repeats content", i)
			}
			content[req.Subsample.Seed] = i
		case jobCASHit, jobReplay:
			if k, _ := jobOp(3, ref); k != jobUnique || ref > i-3 || ref < i-22 {
				t.Fatalf("op %d refers to op %d (kind %v)", i, ref, k)
			}
			if content[req.Subsample.Seed] != ref {
				t.Fatalf("op %d does not carry op %d's content", i, ref)
			}
		}
		prev, seen := keys[req.IdempotencyKey]
		if kind == jobReplay && (!seen || prev != ref) {
			t.Fatalf("replay op %d does not reuse op %d's key", i, ref)
		}
		if kind != jobReplay && seen {
			t.Fatalf("op %d reuses the key of op %d", i, prev)
		}
		if !seen {
			keys[req.IdempotencyKey] = i // the op that minted the key
		}
		if (i+1)%jobBlock == 0 { // exact at every block boundary, wherever a run stops
			n := (i + 1) / jobBlock
			if counts != [3]int{8 * n, n, n} {
				t.Fatalf("after %d blocks the mix is %v", n, counts)
			}
		}
	}
	for _, w := range workloads {
		if w.warmup%w.block != 0 {
			t.Errorf("%s: warm-up %d is not whole blocks of %d", w.name, w.warmup, w.block)
		}
	}
}

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, want benchmarkFile
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	// Round-trip the tables through JSON too, so both sides are compared
	// as the driver would read them.
	b, _ := json.Marshal(describeBenchmark())
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Error("BENCHMARK.json differs from the tables; regenerate it with `go run . -describe`")
	}
	names := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if names[m.Name] {
			t.Errorf("metric name %s used twice", m.Name)
		}
		names[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
}
