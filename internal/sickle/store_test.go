package sickle

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sampling"
)

func TestSaveLoadCubeSamplesRoundTrip(t *testing.T) {
	d, err := BuildDataset("SST-P1F4", Small)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sampling.PipelineConfig{
		Hypercubes: "maxent", Method: "maxent",
		NumHypercubes: 2, NumSamples: 50,
		CubeSx: 16, CubeSy: 16, CubeSz: 16, NumClusters: 4, Seed: 1,
	}
	cubes, err := sampling.SubsampleDataset(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sub.skl")
	if err := SaveCubeSamples(path, cubes); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCubeSamples(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cubes) {
		t.Fatalf("round trip %d cubes, want %d", len(got), len(cubes))
	}
	for i := range got {
		a, b := got[i], cubes[i]
		if a.Snapshot != b.Snapshot || a.Cube != b.Cube {
			t.Fatalf("cube %d header mismatch", i)
		}
		for r := range a.LocalIdx {
			if a.LocalIdx[r] != b.LocalIdx[r] {
				t.Fatal("local index mismatch")
			}
			for v := range a.Features[r] {
				if a.Features[r][v] != b.Features[r][v] {
					t.Fatal("feature value mismatch")
				}
			}
			for v := range a.Targets[r] {
				if a.Targets[r][v] != b.Targets[r][v] {
					t.Fatal("target value mismatch")
				}
			}
		}
	}
	// Storage reduction must be substantial (10% points, few cubes).
	ratio, err := StorageReduction(d, path)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 10 {
		t.Fatalf("storage reduction %vx, want >= 10x", ratio)
	}
}

func TestShardAppenderRoundTrip(t *testing.T) {
	d, err := BuildDataset("SST-P1F4", Small)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sampling.PipelineConfig{
		Hypercubes: "random", Method: "random",
		NumHypercubes: 3, NumSamples: 40,
		CubeSx: 16, CubeSy: 16, CubeSz: 16, Seed: 2,
	}
	cubes, err := sampling.SubsampleDataset(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cubes) < 4 {
		t.Fatalf("want several cube samples, got %d", len(cubes))
	}
	path := filepath.Join(t.TempDir(), "shard.skl")
	a, err := OpenShardAppender(path)
	if err != nil {
		t.Fatal(err)
	}
	// Append incrementally in uneven batches, as a streaming writer would.
	if err := a.Append(cubes[0]); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(cubes[1:3]...); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(cubes[3:]...); err != nil {
		t.Fatal(err)
	}
	if a.n != len(cubes) {
		t.Fatalf("appended %d, want %d", a.n, len(cubes))
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close should be a no-op, got %v", err)
	}
	if err := a.Append(cubes[0]); err == nil {
		t.Fatal("append after Close should error")
	}

	got, err := LoadCubeSamples(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cubes) {
		t.Fatalf("loaded %d cubes, want %d", len(got), len(cubes))
	}
	for i := range got {
		a, b := got[i], cubes[i]
		if a.Snapshot != b.Snapshot || a.Cube != b.Cube || len(a.LocalIdx) != len(b.LocalIdx) {
			t.Fatalf("cube %d mismatch after round trip", i)
		}
		for r := range a.LocalIdx {
			if a.LocalIdx[r] != b.LocalIdx[r] {
				t.Fatal("local index mismatch")
			}
			for v := range a.Features[r] {
				if a.Features[r][v] != b.Features[r][v] {
					t.Fatal("feature value mismatch")
				}
			}
			for v := range a.Targets[r] {
				if a.Targets[r][v] != b.Targets[r][v] {
					t.Fatal("target value mismatch")
				}
			}
		}
	}

	// The appender output must be byte-identical to SaveCubeSamples on the
	// same cube set (same format, count patched correctly).
	ref := filepath.Join(t.TempDir(), "ref.skl")
	if err := SaveCubeSamples(ref, cubes); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("appender output differs from SaveCubeSamples output")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.skl")
	if err := os.WriteFile(path, []byte("not a subsample"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCubeSamples(path); err == nil {
		t.Fatal("expected error for bad magic")
	}
	if _, err := LoadCubeSamples(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestLoadRejectsTrailingBytes(t *testing.T) {
	// A shard with leftover bytes after the declared cube count (e.g. a
	// partial record flushed before a write failure) must not load as a
	// smaller valid dataset.
	path := filepath.Join(t.TempDir(), "trailing.skl")
	if err := SaveCubeSamples(path, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCubeSamples(path); err != nil {
		t.Fatalf("empty shard should load: %v", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCubeSamples(path); err == nil {
		t.Fatal("expected error for trailing bytes")
	}
}
