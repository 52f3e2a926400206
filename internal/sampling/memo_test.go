package sampling

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/synth"
)

// memoDatasets builds the GESTS snapshots the memo tests run over, as the
// sickle registry builds them at small scale: GESTS-2048, then GESTS-8192
// when all is set.
func memoDatasets(all bool) []*grid.Dataset {
	ds := []*grid.Dataset{synth.GESTSDataset("GESTS-2048", synth.IsotropicConfig{N: 32, Seed: 17, KPeak: 4})}
	if all {
		ds = append(ds, synth.GESTSDataset("GESTS-8192", synth.IsotropicConfig{N: 64, Seed: 19, KPeak: 6}))
	}
	return ds
}

func memoConfig(edge, k, budget int, seed int64, m *Memo) PipelineConfig {
	return PipelineConfig{
		Hypercubes: "maxent", Method: "maxent",
		NumHypercubes: 4, NumSamples: budget, CubeSx: edge,
		NumClusters: k, Seed: seed, Memo: m,
	}
}

func subsampleWith(t testing.TB, d *grid.Dataset, cfg PipelineConfig) []CubeSample {
	t.Helper()
	out, err := SubsampleSnapshot(context.Background(), d, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameSelection reports where got and want differ, bit for bit: cube IDs,
// LocalIdx, Features and Targets; "" when they do not.
func sameSelection(got, want []CubeSample) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d cubes, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Cube != w.Cube || len(g.LocalIdx) != len(w.LocalIdx) {
			return fmt.Sprintf("cube %d: %+v with %d points, want %+v with %d", i, g.Cube, len(g.LocalIdx), w.Cube, len(w.LocalIdx))
		}
		for r, li := range g.LocalIdx {
			if li != w.LocalIdx[r] {
				return fmt.Sprintf("cube %d point %d: index %d, want %d", i, r, li, w.LocalIdx[r])
			}
			for _, rows := range [2][2][][]float64{{g.Features, w.Features}, {g.Targets, w.Targets}} {
				for c, x := range rows[0][r] {
					if math.Float64bits(x) != math.Float64bits(rows[1][r][c]) {
						return fmt.Sprintf("cube %d point %d: value %v, want %v", i, r, x, rows[1][r][c])
					}
				}
			}
		}
	}
	return ""
}

// TestMemoMatchesFresh: a selection made through a memo equals the one
// made without, bit for bit, whether the memo is cold, warm from the same
// request, or warm from a request with another seed and budget — over both
// GESTS snapshots, two cube edges and four k (0 is each phase's default).
func TestMemoMatchesFresh(t *testing.T) {
	gen := rand.New(rand.NewSource(31))
	// The race stress reruns this 20 times for the locking alone; the
	// larger snapshot's parity runs without -race.
	for _, d := range memoDatasets(!raceEnabled) {
		for _, edge := range []int{8, 16} {
			for _, k := range []int{0, 3, 5, 20} {
				m := NewMemo(d)
				cube := edge * edge * edge
				seed, budget := gen.Int63n(1000), 1+gen.Intn(cube/4)
				other, otherBudget := seed+1+gen.Int63n(1000), 1+gen.Intn(cube/4)
				for _, run := range []struct {
					state  string
					seed   int64
					budget int
				}{
					{"cold", seed, budget},
					{"warm", seed, budget},
					{"warmed by another seed", other, otherBudget},
				} {
					want := subsampleWith(t, d, memoConfig(edge, k, run.budget, run.seed, nil))
					got := subsampleWith(t, d, memoConfig(edge, k, run.budget, run.seed, m))
					if diff := sameSelection(got, want); diff != "" {
						t.Fatalf("%s edge %d k %d seed %d, %s memo: %s", d.Label, edge, k, run.seed, run.state, diff)
					}
				}
				if m.size == 0 {
					t.Fatalf("%s edge %d k %d: the memo kept nothing", d.Label, edge, k)
				}
			}
		}
	}
}

// TestMemoConcurrent: goroutines sharing one memo, each with its own seeds,
// k and snapshot, all select what a fresh run selects. Run under -race it
// is the memo's locking test.
func TestMemoConcurrent(t *testing.T) {
	d := smallSST(t, 2)
	m := NewMemo(d)
	const workers, reps = 4, 6
	// Request i asks what request i%8 asks: k 0 or 3, snapshot 0 or 1,
	// seed 0 or 1.
	request := func(i int, m *Memo) (int, PipelineConfig) {
		i %= 8
		return i / 2 % 2, memoConfig(8, 3*(i%2), 40, int64(i/4), m)
	}
	want := make([][]CubeSample, 8)
	for i := range want {
		snap, cfg := request(i, nil)
		var err error
		if want[i], err = SubsampleSnapshot(context.Background(), d, snap, cfg); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers*reps)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range reps {
				i := w + r*workers
				snap, cfg := request(i, m)
				got, err := SubsampleSnapshot(context.Background(), d, snap, cfg)
				if err != nil {
					errs <- err.Error()
					continue
				}
				if diff := sameSelection(got, want[i%len(want)]); diff != "" {
					errs <- fmt.Sprintf("request %d: %s", i, diff)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestMemoBound: 30 distinct (edge, k) requests over a small snapshot, each
// k asked at both edges, overflow the memo's bound; it drops its oldest
// tilings to stay within the dataset's bytes, and every selection still
// equals a fresh one.
func TestMemoBound(t *testing.T) {
	d := synth.GESTSDataset("GESTS-small", synth.IsotropicConfig{N: 16, Seed: 3, KPeak: 3})
	m := NewMemo(d)
	evicted := false
	for i := range 30 {
		edge, k := []int{4, 8}[i%2], 1+i/2
		cfg := memoConfig(edge, k, 3, int64(i), nil)
		cfg.NumHypercubes = 6 // of 64 cubes of 4³ or 8 of 8³: both go through phase 1's memo
		want := subsampleWith(t, d, cfg)
		before := len(m.sizes)
		cfg.Memo = m
		got := subsampleWith(t, d, cfg)
		if diff := sameSelection(got, want); diff != "" {
			t.Fatalf("request %d (edge %d, k %d): %s", i, edge, k, diff)
		}
		if m.size > m.limit {
			t.Fatalf("request %d: memo holds %d bytes, the dataset %d", i, m.size, m.limit)
		}
		evicted = evicted || len(m.sizes) < before+1
	}
	if !evicted {
		t.Fatalf("30 tilings never overflowed a %d-byte bound: the test does not reach eviction", m.limit)
	}
}
