package shard

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestOwnerCacheBoundsAndEviction(t *testing.T) {
	oc := newOwnerCache(4)
	for i := 0; i < 10; i++ {
		oc.Remember(fmt.Sprintf("job-%d", i), "r0", "")
	}
	if oc.Len() != 4 {
		t.Fatalf("cache holds %d entries, want cap 4", oc.Len())
	}
	// Oldest fell off, newest survive.
	if _, ok := oc.Resolve("job-0"); ok {
		t.Fatal("job-0 should have been LRU-evicted")
	}
	if rid, ok := oc.Resolve("job-9"); !ok || rid != "r0" {
		t.Fatalf("Resolve(job-9) = %q, %v", rid, ok)
	}

	// Resolve promotes: touching job-6 keeps it alive through two inserts.
	oc.Resolve("job-6")
	oc.Remember("job-10", "r1", "k10")
	oc.Remember("job-11", "r1", "k11")
	if _, ok := oc.Resolve("job-6"); !ok {
		t.Fatal("promoted job-6 should have survived the inserts")
	}

	// Key answers only while the entry still names the same replica.
	if k := oc.Key("job-10", "r1"); k != "k10" {
		t.Fatalf("Key(job-10, r1) = %q, want k10", k)
	}
	if k := oc.Key("job-10", "r0"); k != "" {
		t.Fatalf("Key(job-10, r0) = %q, want empty (replica mismatch)", k)
	}

	// A replicated copy (same raw ID, same key, different replica) does not
	// clobber the first-remembered owner; a different logical job (different
	// key) does.
	oc.Remember("job-10", "r2", "k10")
	if k := oc.Key("job-10", "r1"); k != "k10" {
		t.Fatalf("same-key re-Remember clobbered the owner: Key(job-10, r1) = %q", k)
	}
	oc.Remember("job-10", "r2", "other")
	if k := oc.Key("job-10", "r2"); k != "other" {
		t.Fatalf("different-key re-Remember did not overwrite: Key(job-10, r2) = %q", k)
	}
	oc.Remember("job-10", "r1", "k10")

	// ForgetReplica drops exactly that replica's entries.
	dropped := oc.ForgetReplica("r1")
	if dropped != 2 {
		t.Fatalf("ForgetReplica(r1) dropped %d, want 2", dropped)
	}
	if _, ok := oc.Resolve("job-10"); ok {
		t.Fatal("job-10 should be gone after its replica was forgotten")
	}
	if _, ok := oc.Resolve("job-6"); !ok {
		t.Fatal("job-6 (r0) should have survived ForgetReplica(r1)")
	}
}

// TestOwnerCacheChurnRace hammers one cache from many goroutines doing
// the full operation mix — the -race run is the assertion that matters,
// plus the invariant that the cache never exceeds its cap and that a
// forgotten replica's entries never resurface.
func TestOwnerCacheChurnRace(t *testing.T) {
	const capEntries = 64
	oc := newOwnerCache(capEntries)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				raw := fmt.Sprintf("job-%d", i%200)
				rep := fmt.Sprintf("r%d", i%4)
				switch i % 5 {
				case 0, 1:
					oc.Remember(raw, rep, "key-"+raw)
				case 2:
					oc.Resolve(raw)
				case 3:
					oc.Key(raw, rep)
				case 4:
					oc.ForgetReplica(rep)
				}
				if n := oc.Len(); n > capEntries {
					t.Errorf("cache grew to %d entries, cap %d", n, capEntries)
					return
				}
			}
		}(g)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Quiesced: forgetting a replica leaves nothing of it behind.
	oc.ForgetReplica("r2")
	for i := 0; i < 200; i++ {
		raw := fmt.Sprintf("job-%d", i)
		if rid, ok := oc.Resolve(raw); ok && rid == "r2" {
			t.Fatalf("%s still resolves to forgotten replica r2", raw)
		}
	}
	if n := oc.Len(); n > capEntries {
		t.Fatalf("cache holds %d entries after churn, cap %d", n, capEntries)
	}
}

// TestEjectionEvictsOwnerCache wires the ReplicaSet ejection hook the way
// the router does and verifies an ejected replica's sticky entries go with
// it — the old unbounded map kept them forever.
func TestEjectionEvictsOwnerCache(t *testing.T) {
	oc := newOwnerCache(16)
	rs, err := NewReplicaSet(SetConfig{
		URLs:      []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
		FailAfter: 2,
	}, newMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	rs.OnEject(func(id string) { oc.ForgetReplica(id) })

	oc.Remember("job-1", "r0", "k1")
	oc.Remember("job-2", "r1", "k2")
	r0, _ := rs.Get("r0")
	rs.NoteFailure(r0, fmt.Errorf("boom"))
	rs.NoteFailure(r0, fmt.Errorf("boom"))
	if r0.Up() {
		t.Fatal("r0 should be ejected after FailAfter failures")
	}
	if _, ok := oc.Resolve("job-1"); ok {
		t.Fatal("ejected replica's cache entry survived")
	}
	if _, ok := oc.Resolve("job-2"); !ok {
		t.Fatal("healthy replica's cache entry was evicted too")
	}
}
