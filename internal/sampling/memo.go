package sampling

import (
	"sync"

	"repro/internal/grid"
)

// Memo keeps MaxEnt's seed-independent work on one dataset's snapshots:
// phase 1's cube strengths per tiling and phase 2's clustering per cube.
// Both come from the fixed-seed k-means, so a repeat request through a Memo
// (same snapshot, cluster variable, cube geometry and k; any seed or
// budget) only draws, and selects bit for bit what a fresh run selects. It
// holds at most as many bytes as the dataset, dropping its oldest tiling
// past that. Safe for concurrent use.
type Memo struct {
	mu          sync.Mutex
	limit, size int64
	answers     map[memoKey]any  // cubeStrengths at wholeTiling, clustering at a cube's origin
	sizes       map[tiling]int64 // bytes held per tiling
	order       []tiling         // oldest first
}

// tiling is one (snapshot, cluster variable, k, cube geometry): the unit
// the memo drops.
type tiling struct {
	f          *grid.Field
	kcv        string
	k          int
	sx, sy, sz int
}

// memoKey names an answer by all it is computed from: its tiling and the
// origin of the cube clustered (phase 2) or wholeTiling (phase 1).
type memoKey struct {
	tiling
	at [3]int
}

var wholeTiling = [3]int{-1, -1, -1}

// NewMemo returns an empty memo for the snapshots of d.
func NewMemo(d *grid.Dataset) *Memo {
	m := &Memo{answers: map[memoKey]any{}, sizes: map[tiling]int64{}}
	for _, f := range d.Snapshots {
		for _, v := range f.Vars {
			m.limit += 8 * int64(len(v))
		}
	}
	return m
}

// memoize returns the answer m holds under key, or computes and keeps it.
// compute runs outside the lock and returns an answer in memory of its own
// and the bytes it holds; callers racing on one key may each compute, and
// the first to store wins.
func memoize[T any](m *Memo, key memoKey, compute func() (T, int64)) T {
	m.mu.Lock()
	old, ok := m.answers[key]
	m.mu.Unlock()
	if ok {
		return old.(T)
	}
	v, size := compute()
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.answers[key]; ok {
		return old.(T)
	}
	if _, ok := m.sizes[key.tiling]; !ok {
		m.order = append(m.order, key.tiling)
	}
	m.answers[key] = v
	m.sizes[key.tiling] += size
	m.size += size
	for m.size > m.limit {
		oldest := m.order[0]
		m.order, m.size = m.order[1:], m.size-m.sizes[oldest]
		delete(m.sizes, oldest)
		for k := range m.answers {
			if k.tiling == oldest {
				delete(m.answers, k)
			}
		}
	}
	return v
}
