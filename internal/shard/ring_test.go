package shard

import (
	"fmt"
	"testing"
)

// owner returns the node owning key, or false on an empty ring.
func (r *Ring) owner(key string) (string, bool) {
	seq := r.Sequence(key, 1)
	if len(seq) == 0 {
		return "", false
	}
	return seq[0], true
}

func synthKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("model-%04d", i)
	}
	return keys
}

func ownersOf(t *testing.T, r *Ring, keys []string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		node, ok := r.owner(k)
		if !ok {
			t.Fatalf("key %q has no owner on a %d-node ring", k, r.Len())
		}
		out[k] = node
	}
	return out
}

// TestRingBalance is the load-spread property: 1k synthetic model names
// over 5 nodes must land within a bounded factor of the even share on
// every node.
func TestRingBalance(t *testing.T) {
	r := NewRing()
	const nodes = 5
	for i := 0; i < nodes; i++ {
		r.Add(fmt.Sprintf("r%d", i))
	}
	keys := synthKeys(1000)
	counts := map[string]int{}
	for _, k := range keys {
		node, _ := r.owner(k)
		counts[node]++
	}
	if len(counts) != nodes {
		t.Fatalf("only %d/%d nodes own keys: %v", len(counts), nodes, counts)
	}
	mean := float64(len(keys)) / nodes
	for node, n := range counts {
		ratio := float64(n) / mean
		if ratio < 0.5 || ratio > 1.7 {
			t.Errorf("node %s owns %d keys (%.2f× the even share %.0f); balance bound violated: %v",
				node, n, ratio, mean, counts)
		}
	}
}

// TestRingMinimalMovementOnJoin: adding a node must only move keys onto
// the new node (never shuffle keys between surviving nodes), and the moved
// fraction must stay near the ideal 1/(n+1).
func TestRingMinimalMovementOnJoin(t *testing.T) {
	r := NewRing()
	const nodes = 5
	for i := 0; i < nodes; i++ {
		r.Add(fmt.Sprintf("r%d", i))
	}
	keys := synthKeys(1000)
	before := ownersOf(t, r, keys)

	r.Add("r5")
	after := ownersOf(t, r, keys)
	moved := 0
	for _, k := range keys {
		if before[k] == after[k] {
			continue
		}
		if after[k] != "r5" {
			t.Fatalf("key %q moved %s → %s, not to the joining node", k, before[k], after[k])
		}
		moved++
	}
	ideal := float64(len(keys)) / (nodes + 1)
	if moved == 0 {
		t.Fatal("joining node received no keys")
	}
	if float64(moved) > 2*ideal {
		t.Errorf("%d keys moved on join (ideal %.0f); movement is not minimal", moved, ideal)
	}
}

// TestRingMinimalMovementOnLeave: removing a node must only move that
// node's keys; every other assignment is untouched — the property that
// keeps surviving replicas' LRUs hot through a failure.
func TestRingMinimalMovementOnLeave(t *testing.T) {
	r := NewRing()
	const nodes = 5
	for i := 0; i < nodes; i++ {
		r.Add(fmt.Sprintf("r%d", i))
	}
	keys := synthKeys(1000)
	before := ownersOf(t, r, keys)

	const gone = "r2"
	r.Remove(gone)
	after := ownersOf(t, r, keys)
	for _, k := range keys {
		if before[k] == gone {
			if after[k] == gone {
				t.Fatalf("key %q still owned by removed node", k)
			}
			continue
		}
		if after[k] != before[k] {
			t.Fatalf("key %q moved %s → %s though its owner never left", k, before[k], after[k])
		}
	}

	// Re-admission restores the exact pre-failure assignment: the ring is
	// deterministic in its membership, so the keyspace re-converges.
	r.Add(gone)
	restored := ownersOf(t, r, keys)
	for _, k := range keys {
		if restored[k] != before[k] {
			t.Fatalf("key %q owned by %s after re-admission, was %s", k, restored[k], before[k])
		}
	}
}

// TestRingAddRemoveIdempotent is the churn property behind dynamic
// membership: however a join/leave sequence interleaves — repeated Adds
// of a present node, Removes of an absent one, full leave-and-rejoin
// cycles — the ring must hold exactly vnodes points per member (no
// duplicated vnode points, no stale leftovers) and assign keys exactly
// as a fresh ring with the same membership would.
func TestRingAddRemoveIdempotent(t *testing.T) {
	r := NewRing()

	r.Add("a")
	r.Add("a") // repeated join: must not duplicate vnode points
	if r.Len() != 1 || len(r.points) != vnodes {
		t.Fatalf("after double Add: %d nodes, %d points; want 1, %d", r.Len(), len(r.points), vnodes)
	}
	r.Remove("a")
	r.Remove("a") // repeated leave: no panic, no underflow
	r.Remove("never-joined")
	if r.Len() != 0 || len(r.points) != 0 {
		t.Fatalf("after double Remove: %d nodes, %d points; want empty", r.Len(), len(r.points))
	}

	// Deterministic churn: every prefix of the sequence must leave the
	// ring identical to one built fresh from the surviving membership.
	ops := []struct {
		add  bool
		node string
	}{
		{true, "r0"}, {true, "r1"}, {true, "r2"}, {true, "r1"}, // dup join
		{false, "r0"}, {false, "r0"}, // dup leave
		{true, "r3"}, {true, "r0"}, // rejoin after leave
		{false, "r2"}, {true, "r2"}, {false, "rX"}, // leave-rejoin, phantom leave
	}
	live := map[string]bool{}
	for step, op := range ops {
		if op.add {
			r.Add(op.node)
			live[op.node] = true
		} else {
			r.Remove(op.node)
			delete(live, op.node)
		}
		if got, want := len(r.points), vnodes*len(live); got != want {
			t.Fatalf("step %d: %d points for %d nodes; want %d", step, got, len(live), want)
		}
		fresh := NewRing()
		for n := range live {
			fresh.Add(n)
		}
		for _, k := range synthKeys(200) {
			churned, ok1 := r.owner(k)
			direct, ok2 := fresh.owner(k)
			if ok1 != ok2 || churned != direct {
				t.Fatalf("step %d: key %q owned by %q after churn, %q on a fresh ring", step, k, churned, direct)
			}
		}
	}
}

// TestRingSequence: the failover order starts at the owner, contains no
// duplicates, and is capped by the node count.
func TestRingSequence(t *testing.T) {
	r := NewRing()
	for i := 0; i < 3; i++ {
		r.Add(fmt.Sprintf("r%d", i))
	}
	for _, k := range synthKeys(50) {
		owner, _ := r.owner(k)
		seq := r.Sequence(k, 5)
		if len(seq) != 3 {
			t.Fatalf("Sequence(%q, 5) returned %d nodes on a 3-node ring", k, len(seq))
		}
		if seq[0] != owner {
			t.Fatalf("Sequence(%q)[0] = %s, owner is %s", k, seq[0], owner)
		}
		seen := map[string]bool{}
		for _, n := range seq {
			if seen[n] {
				t.Fatalf("Sequence(%q) repeats node %s: %v", k, n, seq)
			}
			seen[n] = true
		}
	}
	if got := r.Sequence("x", 0); got != nil {
		t.Fatalf("Sequence(n=0) = %v, want nil", got)
	}
	empty := NewRing()
	if got := empty.Sequence("x", 2); got != nil {
		t.Fatalf("empty ring Sequence = %v, want nil", got)
	}
}
