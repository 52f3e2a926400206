package stream

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestPipelineInstrumentation runs the pipeline with a registry and tracer
// attached and checks the sickle_stream_* series and the run trace: every
// snapshot counted, per-snapshot phase2 spans plus the phase1 and merge
// spans all under the single run trace ID.
func TestPipelineInstrumentation(t *testing.T) {
	d := testDataset()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer("stream", 256)

	res, err := Run(t.Context(), NewReplaySource(d), Config{
		Pipeline: testPipelineConfig(), Ranks: 2, Window: 2, MergeEvery: 2,
		Metrics: reg, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == "" {
		t.Fatal("Result.TraceID empty with tracer attached")
	}

	text := reg.Render()
	for _, want := range []string{
		"sickle_stream_snapshots_total 6",
		"sickle_stream_merge_rounds_total",
		"sickle_stream_points_total",
		"sickle_stream_backpressure_stalls_total",
		`sickle_stream_snapshot_seconds_bucket{le="`,
		"sickle_stream_snapshot_seconds_count 6",
		"sickle_stream_buffered_snapshots 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}

	spans := tracer.Spans(res.TraceID)
	counts := map[string]int{}
	var rootID string
	for _, s := range spans {
		if s.Tier != "stream" {
			t.Errorf("span %s tier = %q, want stream", s.Name, s.Tier)
		}
		counts[s.Name]++
		if s.Name == "pipeline:run" {
			rootID = s.SpanID
		}
	}
	if counts["pipeline:run"] != 1 || counts["phase1:select"] != 1 {
		t.Fatalf("span counts = %v", counts)
	}
	if counts["phase2:snapshot"] != res.Snapshots {
		t.Errorf("got %d phase2 spans, want %d", counts["phase2:snapshot"], res.Snapshots)
	}
	if counts["merge:sketch"] != res.MergeRounds {
		t.Errorf("got %d merge spans, want %d", counts["merge:sketch"], res.MergeRounds)
	}
	for _, s := range spans {
		if s.Name != "pipeline:run" && s.ParentID != rootID {
			t.Errorf("span %s parent = %q, want root %q", s.Name, s.ParentID, rootID)
		}
	}
}
