package shard

import (
	"fmt"
	"sync"
	"testing"
)

// Len reports the cache's current entry count.
func (oc *ownerCache) Len() int {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	return oc.order.Len()
}

func TestOwnerCacheBoundsAndEviction(t *testing.T) {
	oc := newOwnerCache(4)
	for i := 0; i < 10; i++ {
		oc.Remember(fmt.Sprintf("job-%d@r0", i), fmt.Sprintf("k%d", i))
	}
	if oc.Len() != 4 {
		t.Fatalf("cache holds %d entries, want cap 4", oc.Len())
	}
	// Oldest fell off, newest survive.
	if k := oc.Key("job-0@r0"); k != "" {
		t.Fatalf("job-0@r0 should have been LRU-evicted, holds %q", k)
	}
	if k := oc.Key("job-9@r0"); k != "k9" {
		t.Fatalf("Key(job-9@r0) = %q, want k9", k)
	}

	// Remember promotes: refreshing job-6 keeps it alive through two inserts.
	oc.Remember("job-6@r0", "k6")
	oc.Remember("job-10@r1", "k10")
	oc.Remember("job-11@r1", "k11")
	if k := oc.Key("job-6@r0"); k != "k6" {
		t.Fatalf("promoted job-6@r0 should have survived the inserts, holds %q", k)
	}

	// The full ID is the address: the same raw ID on another replica is
	// another job, and a copy's entry leaves its owner's alone.
	if k := oc.Key("job-10@r0"); k != "" {
		t.Fatalf("Key(job-10@r0) = %q, want empty (another replica's job)", k)
	}
	oc.Remember("job-10@r2", "k10")
	if k := oc.Key("job-10@r1"); k != "k10" {
		t.Fatalf("a copy's entry clobbered its owner's: Key(job-10@r1) = %q", k)
	}

	// Unkeyed jobs are not remembered.
	oc.Remember("job-12@r0", "")
	if k := oc.Key("job-12@r0"); k != "" || oc.Len() != 4 {
		t.Fatalf("unkeyed job remembered: Key = %q, Len = %d", k, oc.Len())
	}
}

// TestOwnerCacheChurnRace hammers one cache from many goroutines racing
// Remember against Key — the -race run is the assertion that matters,
// plus the invariant that the cache never exceeds its cap and never
// answers a key other than the one an ID was remembered under.
func TestOwnerCacheChurnRace(t *testing.T) {
	const capEntries, opsPerGoroutine = 64, 5000
	oc := newOwnerCache(capEntries)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPerGoroutine; i++ {
				id := fmt.Sprintf("job-%d@r%d", i%200, i%4)
				if i%2 == 0 {
					oc.Remember(id, "key-"+id)
				} else if k := oc.Key(id); k != "" && k != "key-"+id {
					t.Errorf("Key(%s) = %q", id, k)
					return
				}
				if n := oc.Len(); n > capEntries {
					t.Errorf("cache grew to %d entries, cap %d", n, capEntries)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := oc.Len(); n > capEntries {
		t.Fatalf("cache holds %d entries after churn, cap %d", n, capEntries)
	}
}
