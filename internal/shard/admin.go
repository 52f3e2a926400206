package shard

import (
	"context"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs/events"
	"repro/internal/tier"
	"repro/pkg/api"
)

// The membership admin API: replicas join a live router (warm-prefetched
// before they take traffic) and drain out of it (sticky jobs bled first),
// with every change's keyspace movement measured and journaled.

// rebalanceProbes is how many synthetic keys sample the keyspace when
// estimating how much primary ownership a membership change moved.
const rebalanceProbes = 256

// sampleOwners records the primary owner of each probe key under the
// current ring; diffing two samples across a membership change estimates
// the moved keyspace share (which consistent hashing keeps near 1/N).
func (rt *Router) sampleOwners() []string {
	out := make([]string, rebalanceProbes)
	for i := range out {
		if rep, ok := rt.rs.Owner("rebalance-probe-" + strconv.Itoa(i)); ok {
			out[i] = rep.ID
		}
	}
	return out
}

// noteRebalance diffs probe-key ownership against a pre-change sample,
// records the moved share, and journals the rebalance.
func (rt *Router) noteRebalance(before []string, kind, traceID string) {
	after := rt.sampleOwners()
	moved := 0
	for i := range before {
		if before[i] != after[i] {
			moved++
		}
	}
	share := float64(moved) / float64(len(before))
	rt.met.rebalances.Inc()
	rt.met.rebalanceMovedShare.Set(share)
	rt.Journal().Emit(events.TypeRebalance, "keyspace ownership rebalanced", traceID,
		"kind", kind, "moved_share", strconv.FormatFloat(share, 'f', 3, 64))
}

func (rt *Router) handleAdminListReplicas(w http.ResponseWriter, _ *http.Request) error {
	out := api.AdminReplicas{Replication: rt.replication, Replicas: []api.AdminReplica{}}
	for _, s := range rt.rs.Snapshot() {
		out.Replicas = append(out.Replicas, api.AdminReplica{
			ID: s.ID, URL: s.URL, Up: s.Up, Draining: s.Draining,
		})
	}
	return tier.WriteJSON(w, http.StatusOK, out)
}

// handleAdminJoinReplica brings a running backend into the ring: create it
// as a pending (off-ring) member, health-check it, warm-prefetch the
// fleet's model catalog onto it, and only then admit it — a newcomer never
// takes keyed traffic with a cold cache, whatever the prober sees of it
// meanwhile.
func (rt *Router) handleAdminJoinReplica(w http.ResponseWriter, r *http.Request) error {
	var req api.JoinReplicaRequest
	if err := tier.DecodeBody(r, &req); err != nil {
		return tier.WriteError(w, err)
	}
	if strings.TrimSpace(req.URL) == "" {
		return tier.WriteError(w, api.Errorf(api.CodeInvalidArgument, "shard: join needs a backend url"))
	}
	before := rt.sampleOwners()
	rep, err := rt.rs.AddReplica(req.URL)
	if err != nil {
		return tier.WriteError(w, api.Errorf(api.CodeInvalidArgument, "%v", err))
	}
	if _, err := rep.C.Health(r.Context()); err != nil {
		rt.rs.RemoveReplica(rep.ID)
		return tier.WriteError(w, api.Errorf(api.CodeUnavailable,
			"shard: replica at %s failed its admission health check: %v", rep.URL, err))
	}
	prefetched := rt.prefetchModels(r.Context(), rep)
	if !rt.rs.Admit(rep) {
		return tier.WriteError(w, api.Errorf(api.CodeUnavailable,
			"shard: replica %s was removed before admission", rep.ID))
	}
	tc, _ := api.TraceFrom(r.Context())
	rt.Journal().Emit(events.TypeReplicaJoin, "replica joined the ring", tc.TraceID,
		"replica", rep.ID, "url", rep.URL, "prefetched", strconv.Itoa(len(prefetched)))
	rt.noteRebalance(before, "join", tc.TraceID)
	return tier.WriteJSON(w, http.StatusOK, api.JoinReplicaResponse{
		Replica:          api.AdminReplica{ID: rep.ID, URL: rep.URL, Up: true},
		PrefetchedModels: prefetched,
	})
}

// prefetchModels warm-caches the fleet's model catalog onto a pending
// replica: gather from the current members their newest version of each
// model, then register every checkpoint-backed one on the newcomer.
// Best-effort — a model whose checkpoint the newcomer cannot load is
// skipped, not fatal (it will 404 there and fail over like today).
func (rt *Router) prefetchModels(ctx context.Context, rep *Replica) []string {
	catalog, _ := rt.catalog(ctx, rep)
	prefetched := []string{}
	for _, name := range slices.Sorted(maps.Keys(catalog)) {
		m := catalog[name]
		if m.Checkpoint == "" {
			continue // nothing on disk to reload it from
		}
		_, err := rep.C.RegisterModel(ctx, &api.RegisterModelRequest{
			Name: m.Name, Spec: m.Spec, Checkpoint: m.Checkpoint,
			InputShape: m.InputShape, Replicas: m.Replicas,
		})
		if err == nil {
			prefetched = append(prefetched, m.Name)
		}
	}
	return prefetched
}

// handleAdminDrainReplica is the rolling-drain orchestration: the replica
// leaves the ring immediately (no new keyed traffic), its sticky jobs
// bleed to terminal states (bounded by the request context; skipped with
// ?force=true), and only then is it removed from the membership — into
// the retired set, so job IDs minted while it was a member keep resolving.
func (rt *Router) handleAdminDrainReplica(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	force := r.URL.Query().Get("force") == "true"
	before := rt.sampleOwners()
	rep, ok := rt.rs.SetDraining(id)
	if !ok {
		return tier.WriteError(w, api.Errorf(api.CodeNotFound, "shard: no replica %q", id))
	}
	tc, _ := api.TraceFrom(r.Context())
	rt.Journal().Emit(events.TypeReplicaDrain, "replica draining before removal", tc.TraceID,
		"replica", rep.ID, "url", rep.URL, "force", strconv.FormatBool(force))
	drained := 0
	if !force {
		n, err := rt.bleedJobs(r.Context(), rep)
		if err != nil {
			// Left draining, off-ring: the operator can retry, wait longer,
			// or force the removal.
			return tier.WriteError(w, err)
		}
		drained = n
	}
	rt.rs.RemoveReplica(rep.ID)
	rt.Journal().Emit(events.TypeReplicaLeave, "replica removed from the membership", tc.TraceID,
		"replica", rep.ID, "url", rep.URL, "drained_jobs", strconv.Itoa(drained))
	rt.noteRebalance(before, "leave", tc.TraceID)
	return tier.WriteJSON(w, http.StatusOK, api.DrainReplicaResponse{
		Replica:     api.AdminReplica{ID: rep.ID, URL: rep.URL, Up: rep.Up()},
		DrainedJobs: drained,
	})
}

// bleedJobs polls a draining replica until none of its jobs are live,
// returning how many were still running when the drain began. A poll
// failure is not fatal — the replica may be briefly busy — only the
// context deadline ends the wait early.
func (rt *Router) bleedJobs(ctx context.Context, rep *Replica) (int, error) {
	first := 0
	counted := false
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		jobs, err := rep.C.Jobs(ctx)
		if err == nil {
			n := 0
			for _, j := range jobs {
				if !j.State.Terminal() {
					n++
				}
			}
			if !counted {
				first, counted = n, true
			}
			if n == 0 {
				return first, nil
			}
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return first, api.AsError(ctx.Err())
		}
	}
}
