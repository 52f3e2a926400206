// Package shard is SICKLE-Go's horizontal scaling tier: a router that
// fronts N sickle-serve backends and is itself a byte-compatible pkg/api
// server. Infer and subsample requests are routed by consistent hashing on
// the model/dataset name — each backend's replica pool and LRU stay hot on
// its shard of the keyspace — with bounded-retry failover to the next ring
// node when a backend is unreachable, overloaded, or draining. Model
// listings and the version handshake are scatter-gathered across live
// backends; jobs stick to the backend that accepted them via a replica
// suffix baked into the job ID. A health prober ejects backends after
// consecutive failures and re-admits them when /healthz answers again;
// the ring holds the admitted members, and routing skips the ejected ones
// as it walks it. cmd/sickle-shard is the binary; .github/smoke.sh shard
// and elastic are its process smokes.
package shard

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// vnodes is the virtual-node count per ring node — enough that a handful of
// nodes split 1k keys within a modest balance bound (asserted by
// TestRingBalance).
const vnodes = 160

// Ring is a consistent-hash ring over node IDs. Each node contributes
// vnodes points; a key belongs to the node owning the first point at or
// after the key's hash. Ring is not safe for concurrent use — the
// ReplicaSet guards it.
type Ring struct {
	points []ringPoint // sorted by (hash, node)
	nodes  map[string]struct{}
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds an empty ring.
func NewRing() *Ring {
	return &Ring{nodes: map[string]struct{}{}}
}

// ringHash is FNV-1a followed by the MurmurHash3 64-bit finalizer. Bare
// FNV-1a of short, similar strings ("r2#0", "r2#1", ...) barely differs in
// the low bits, so a node's virtual points would cluster into one tight
// arc and wreck the balance property; the finalizer's avalanche spreads
// them across the whole ring.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts a node's virtual points. Adding an existing node is a no-op.
func (r *Ring) Add(node string) {
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	r.rebuild()
}

// Remove drops a node and its points. Removing an absent node is a no-op.
func (r *Ring) Remove(node string) {
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	r.rebuild()
}

// rebuild regenerates the point list from the membership set. Points are
// a pure function of (nodes, vnodes), so any Add/Remove sequence reaching
// the same membership yields an identical ring: repeated joins cannot
// duplicate a node's vnode points, and interleaved join/leave churn
// cannot leave stale points behind. Membership changes are rare (admin
// joins, ejections), so the full re-sort is cheap relative to what it
// buys.
func (r *Ring) rebuild() {
	r.points = r.points[:0]
	for node := range r.nodes {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{ringHash(node + "#" + strconv.Itoa(i)), node})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
}

// Len returns the number of nodes on the ring.
func (r *Ring) Len() int { return len(r.nodes) }

// Sequence returns up to n distinct nodes in ring order starting at the
// key's successor point — the owner first, then the failover candidates in
// the order keys would migrate if the owner left the ring.
func (r *Ring) Sequence(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(j int) bool { return r.points[j].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for j := 0; len(out) < n && j < len(r.points); j++ {
		p := r.points[(i+j)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}
