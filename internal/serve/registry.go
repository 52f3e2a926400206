package serve

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/nn"
	"repro/internal/train"
)

// ModelEntry is one servable model version: the arch spec, the checkpoint
// it was loaded from, and a pool of identical replicas. Replicas exist
// because the Table 2 models cache forward-pass state in struct fields, so
// a single instance cannot run two batches concurrently; the pool lets up
// to len(replicas) batches of the same model run in parallel, each replica
// used by one batch at a time.
type ModelEntry struct {
	Name       string         `json:"name"`
	Version    int            `json:"version"`
	Spec       train.ArchSpec `json:"spec"`
	Checkpoint string         `json:"checkpoint,omitempty"`
	InputShape []int          `json:"inputShape,omitempty"` // per-example shape, no batch dim
	Replicas   int            `json:"replicas"`

	pool chan train.Model
}

// maxReplicas bounds the per-model replica pool a single registration may
// request.
const maxReplicas = 64

// validateModelName restricts registry names to a safe charset: names flow
// into URLs, metrics labels and log lines, and must never smuggle path
// separators toward anything filesystem-shaped.
func validateModelName(name string) error {
	if name == "" {
		return fmt.Errorf("serve: model name must not be empty")
	}
	if len(name) > 128 {
		return fmt.Errorf("serve: model name longer than 128 bytes")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("serve: model name %q contains %q (allowed: letters, digits, '-', '_', '.')", name, r)
		}
	}
	return nil
}

// Registry maps model names to their current entry. Register on an
// existing name hot-swaps: the version increments and new requests use the
// new replicas while in-flight batches finish on the old ones.
type Registry struct {
	mu     sync.RWMutex
	models map[string]*ModelEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{models: map[string]*ModelEntry{}}
}

// Register builds `replicas` identical models from spec, loads the
// checkpoint into each, and publishes them under name. With an empty
// checkpoint path the freshly initialized weights are served (useful in
// tests). inputShape documents the per-example tensor shape clients must
// send; it is surfaced through /v2/models so a client can build a request.
func (r *Registry) Register(name string, spec train.ArchSpec, checkpoint string, inputShape []int, replicas int) (*ModelEntry, error) {
	if err := validateModelName(name); err != nil {
		return nil, err
	}
	if replicas < 1 {
		replicas = 1
	}
	// Each replica is a full weight copy (plus a checkpoint read); an
	// unbounded count would let one POST /v2/models OOM the process.
	if replicas > maxReplicas {
		return nil, fmt.Errorf("serve: %d replicas exceeds the limit of %d", replicas, maxReplicas)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	pool := make(chan train.Model, replicas)
	for i := 0; i < replicas; i++ {
		// The seed is irrelevant once a checkpoint overwrites the weights,
		// but keeping it fixed makes no-checkpoint replicas identical too.
		m, err := spec.Build(rand.New(rand.NewSource(1)))
		if err != nil {
			return nil, err
		}
		if checkpoint != "" {
			if err := nn.LoadCheckpoint(checkpoint, m); err != nil {
				return nil, fmt.Errorf("serve: loading %s into %q: %w", checkpoint, name, err)
			}
		}
		pool <- m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	version := 1
	if old, ok := r.models[name]; ok {
		version = old.Version + 1
	}
	e := &ModelEntry{
		Name: name, Version: version, Spec: spec, Checkpoint: checkpoint,
		InputShape: append([]int(nil), inputShape...), Replicas: replicas, pool: pool,
	}
	r.models[name] = e
	return e, nil
}

// Lookup returns the current entry for name.
func (r *Registry) Lookup(name string) (*ModelEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.models[name]
	return e, ok
}

// List returns the current entries sorted by name.
func (r *Registry) List() []*ModelEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*ModelEntry, 0, len(r.models))
	for _, name := range slices.Sorted(maps.Keys(r.models)) {
		out = append(out, r.models[name])
	}
	return out
}

// Acquire blocks until a replica of the entry is free or ctx is done
// (returning ctx.Err()) — no caller waits on a replica longer than its own
// deadline. Callers must pass the same replica to Release when done; an
// entry that has since been hot-swapped still accepts the release (the old
// pool is garbage once all in-flight batches return their replicas).
func (e *ModelEntry) Acquire(ctx context.Context) (train.Model, error) {
	select {
	case m := <-e.pool:
		return m, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Release returns a replica to the entry's pool.
func (e *ModelEntry) Release(m train.Model) { e.pool <- m }
