package serve

import (
	"container/list"
	"context"
	"sync"
)

// LRU is a bounded, load-through cache keyed by string. It backs the
// service's dataset/.skl-shard resolution: repeated /v2/subsample requests
// for the same dataset hit the cache instead of re-synthesizing or
// re-reading gigascale snapshots; a dataset's entry carries its MaxEnt memo,
// so the two are evicted together. Loads are deduplicated per key — when
// two requests race on a cold key, one loads and the other waits for it.
type LRU struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses, evictions int64
}

type lruEntry struct {
	key   string
	val   any
	err   error
	ready chan struct{} // closed once val/err are populated
}

// NewLRU returns a cache holding at most capacity entries (minimum 1).
func NewLRU(capacity int) *LRU {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU{cap: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

// GetOrLoad returns the cached value for key, invoking load on a miss. The
// second return reports whether this call was a hit. The cache lock is not
// held during load, so distinct keys load concurrently; concurrent callers
// of the same cold key share one load. A failed load is evicted immediately
// so the next request retries.
//
// A caller whose ctx ends while waiting on another caller's in-flight load
// gets ctx.Err() back immediately; the load itself continues for the
// remaining waiters (it is owned by the request that initiated it, so one
// impatient client cannot poison the shared entry).
func (c *LRU) GetOrLoad(ctx context.Context, key string, load func() (any, error)) (any, bool, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*lruEntry)
		c.hits++
		c.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
		return e.val, true, e.err
	}
	e := &lruEntry{key: key, ready: make(chan struct{})}
	c.items[key] = c.ll.PushFront(e)
	c.misses++
	for c.ll.Len() > c.cap {
		c.evictOldest()
	}
	c.mu.Unlock()

	e.val, e.err = load()
	close(e.ready)
	if e.err != nil {
		c.mu.Lock()
		if el, ok := c.items[key]; ok && el.Value.(*lruEntry) == e {
			c.ll.Remove(el)
			delete(c.items, key)
		}
		c.mu.Unlock()
	}
	return e.val, false, e.err
}

func (c *LRU) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*lruEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.evictions++
}

// Len returns the current entry count.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns cumulative hit/miss/eviction counters.
func (c *LRU) Stats() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}
