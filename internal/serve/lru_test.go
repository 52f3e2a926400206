package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// keys lists the cached keys from most- to least-recently used.
func (c *LRU) keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry).key)
	}
	return out
}

func TestLRUEvictionOrder(t *testing.T) {
	c := NewLRU(3)
	load := func(v string) func() (any, error) {
		return func() (any, error) { return v, nil }
	}
	for _, k := range []string{"a", "b", "c"} {
		if _, hit, err := c.GetOrLoad(context.Background(), k, load(k)); hit || err != nil {
			t.Fatalf("cold load of %q: hit=%v err=%v", k, hit, err)
		}
	}
	// Touch "a" so "b" becomes least recently used.
	if _, hit, _ := c.GetOrLoad(context.Background(), "a", load("a")); !hit {
		t.Fatal("expected hit on a")
	}
	// Inserting "d" must evict "b".
	c.GetOrLoad(context.Background(), "d", load("d"))
	keys := c.keys()
	want := []string{"d", "a", "c"}
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("MRU order = %v, want %v", keys, want)
	}
	if _, hit, _ := c.GetOrLoad(context.Background(), "b", load("b")); hit {
		t.Fatal("b should have been evicted")
	}
	hits, misses, evictions := c.Stats()
	// a,b,c,d cold + b re-load = 5 misses; a + the final b... b was a miss.
	if hits != 1 || misses != 5 || evictions < 2 {
		t.Fatalf("stats = %d hits %d misses %d evictions, want 1/5/>=2", hits, misses, evictions)
	}
}

func TestLRUConcurrentLoadDedup(t *testing.T) {
	c := NewLRU(4)
	var loads int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.GetOrLoad(context.Background(), "k", func() (any, error) {
				atomic.AddInt64(&loads, 1)
				return 99, nil
			})
			if err != nil || v.(int) != 99 {
				t.Errorf("GetOrLoad = %v, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if loads != 1 {
		t.Fatalf("loader ran %d times for one key, want 1", loads)
	}
}

func TestLRUFailedLoadRetries(t *testing.T) {
	c := NewLRU(2)
	calls := 0
	fail := func() (any, error) { calls++; return nil, fmt.Errorf("boom") }
	if _, _, err := c.GetOrLoad(context.Background(), "k", fail); err == nil {
		t.Fatal("expected error")
	}
	if _, hit, err := c.GetOrLoad(context.Background(), "k", fail); err == nil || hit {
		t.Fatalf("failed entry must not be cached (hit=%v err=%v)", hit, err)
	}
	if calls != 2 {
		t.Fatalf("loader calls = %d, want 2", calls)
	}
}
