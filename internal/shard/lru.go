package shard

import (
	"container/list"
	"sync"
)

// ownerEntry is one remembered keyed job: its client-facing ID
// (job-3@r1) and the idempotency key it was submitted under.
type ownerEntry struct {
	id  string
	key string
}

// ownerCache is the bounded memory behind the copy fallback: when the
// replica a job ID names is unreachable, the key remembered under that ID
// is what re-finds a replicated copy on another owner. The ID suffix is a
// job's only address, so the cache holds keyed jobs alone, and a miss
// only means the read gets the dead replica's own answer. It is a plain
// LRU: Remember promotes, the least-recently-used entry falls off at cap.
type ownerCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element // client-facing ID → element whose Value is *ownerEntry
	order   *list.List               // front = most recently used
}

func newOwnerCache(capacity int) *ownerCache {
	return &ownerCache{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// Remember records (or refreshes) id → key; an unkeyed job is not
// remembered.
func (oc *ownerCache) Remember(id, key string) {
	if key == "" {
		return
	}
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if el, ok := oc.entries[id]; ok {
		el.Value.(*ownerEntry).key = key
		oc.order.MoveToFront(el)
		return
	}
	oc.entries[id] = oc.order.PushFront(&ownerEntry{id: id, key: key})
	if oc.order.Len() > oc.cap {
		back := oc.order.Back()
		delete(oc.entries, back.Value.(*ownerEntry).id)
		oc.order.Remove(back)
	}
}

// Key returns the idempotency key the job id names was submitted under,
// or "" for a job the cache does not hold.
func (oc *ownerCache) Key(id string) string {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if el, ok := oc.entries[id]; ok {
		return el.Value.(*ownerEntry).key
	}
	return ""
}
