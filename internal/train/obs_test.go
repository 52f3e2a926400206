package train

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/pkg/api"
)

// TestTrainInstrumentation attaches a registry and tracer to a short run
// and checks the sickle_train_* series (epoch/batch histograms, live
// gauges) and the per-epoch span tree under one trace.
func TestTrainInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer("train", 64)
	ex := syntheticRegression(24, 7)
	factory := func(rng *rand.Rand) Model { return NewLSTMModel(rng, 2, 4, 1) }

	// The caller's trace must be joined, not replaced.
	tc := api.TraceContext{TraceID: api.NewTraceID(), SpanID: api.NewSpanID()}
	ctx := api.WithTrace(context.Background(), tc)
	_, hist, err := Train(ctx, factory, ex, Config{
		Epochs: 3, Batch: 8, Seed: 11, Metrics: reg, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hist.TraceID != tc.TraceID {
		t.Fatalf("History.TraceID = %q, want caller's %q", hist.TraceID, tc.TraceID)
	}

	text := reg.Render()
	for _, want := range []string{
		"sickle_train_epoch_seconds_count 3",
		`sickle_train_epoch_seconds_bucket{le="`,
		"sickle_train_batch_seconds_count",
		"sickle_train_batches_total",
		"sickle_train_epoch 3",
		"sickle_train_loss",
		"sickle_train_test_loss",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}

	spans := tracer.Spans(tc.TraceID)
	var root obs.Span
	epochs := 0
	for _, s := range spans {
		switch s.Name {
		case "train:run":
			root = s
		case "train:epoch":
			epochs++
		}
	}
	if root.SpanID == "" || root.ParentID != tc.SpanID {
		t.Fatalf("train:run span = %+v, want parent %q", root, tc.SpanID)
	}
	if epochs != 3 {
		t.Errorf("got %d train:epoch spans, want 3", epochs)
	}
	for _, s := range spans {
		if s.Name == "train:epoch" && s.ParentID != root.SpanID {
			t.Errorf("epoch span parent = %q, want %q", s.ParentID, root.SpanID)
		}
	}
}
