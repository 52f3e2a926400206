package shard

import (
	"context"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs/events"
	"repro/internal/tier"
	"repro/pkg/api"
	"repro/pkg/client"
)

// Job ownership: which replica holds a job, how a client-facing ID names
// it, and how a keyed submission's owner set is consulted, populated and
// re-found after its primary dies.

// Job IDs leaving the router carry the accepting replica as a suffix
// ("job-3@r1"): raw downstream IDs are only unique per replica (each
// counts from job-1), so the suffix is a job's only address — stateless,
// it survives a router restart with no shared store.
const jobIDSep = "@"

func splitJobID(id string) (raw, replicaID string) {
	if i := strings.LastIndex(id, jobIDSep); i >= 0 {
		return id[:i], id[i+1:]
	}
	return id, ""
}

// stampJob rewrites a downstream job snapshot's ID to the client-facing
// form naming the replica that holds it, and remembers a keyed job's key
// under that ID for the copy fallback.
func (rt *Router) stampJob(job *api.Job, rep *Replica) {
	job.ID += jobIDSep + rep.ID
	rt.owners.Remember(job.ID, job.IdempotencyKey)
}

// maxJobOwnerEntries bounds the copy-fallback memory; an evicted entry
// only costs that job its failover to a copy.
const maxJobOwnerEntries = 8192

// jobReplica resolves a client-facing job ID to (raw downstream ID,
// owning replica) by its "@rN" suffix; an ID without one names no job.
func (rt *Router) jobReplica(id string) (string, *Replica, error) {
	raw, rid := splitJobID(id)
	rep, ok := rt.rs.Get(rid)
	if raw == "" || !ok {
		return "", nil, api.Errorf(api.CodeJobNotFound, "shard: no job %q", id)
	}
	return raw, rep, nil
}

// submitKey routes a job to the replica whose caches its payload will
// touch: the subsample/train dataset when present, else the job type.
func submitKey(req *api.SubmitJobRequest) string {
	switch {
	case req.Subsample != nil:
		return subsampleKey(req.Subsample)
	case req.Train != nil:
		return req.Train.Dataset
	}
	return string(req.Type)
}

// findByKey asks each candidate in turn for the job holding idemKey and
// returns the first that has it, with route's accounting: a success
// resets the replica's failure streak, a typed unavailable counts
// against its health, and any other answer (job_not_found above all)
// moves on to the next candidate.
func (rt *Router) findByKey(ctx context.Context, cands []*Replica, idemKey string) (*api.Job, *Replica, bool) {
	for _, rep := range cands {
		job, err := rep.C.JobByKey(ctx, idemKey)
		if err == nil {
			rt.rs.NoteOK(rep)
			return job, rep, true
		}
		if api.AsError(err).Code == api.CodeUnavailable {
			rt.met.ObserveFailed(rep.ID)
			rt.rs.NoteFailure(rep, err)
		}
	}
	return nil, nil, false
}

// replicate copies a keyed submission onto the remaining members of its
// owner set, concurrently and best-effort: runners are deterministic and
// results content-addressed, so a copy is just pre-positioned redundancy —
// a fan-out failure loses nothing (the admitted primary copy exists) and
// only costs the key its failover cover. Returns once every copy has been
// admitted or failed, so a caller observing the submit response can rely
// on the owner set being populated.
func (rt *Router) replicate(ctx context.Context, routeKey string, req *api.SubmitJobRequest, admitted *Replica) {
	if rt.replication <= 1 {
		return
	}
	var wg sync.WaitGroup
	for _, rep := range rt.rs.Sequence(routeKey, rt.replication) {
		if rep == admitted {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rep.C.SubmitJob(ctx, req); err != nil {
				rt.met.ownerReplFailures.Inc()
				if api.AsError(err).Code == api.CodeUnavailable {
					rt.rs.NoteFailure(rep, err)
				}
				return
			}
			rt.rs.NoteOK(rep)
			rt.met.ownerReplications.With(rep.ID).Inc()
		}()
	}
	wg.Wait()
}

func (rt *Router) handleSubmitJob(w http.ResponseWriter, r *http.Request) error {
	var req api.SubmitJobRequest
	if err := tier.DecodeBody(r, &req); err != nil {
		return tier.WriteError(w, err)
	}
	key := submitKey(&req)
	// A keyed submission consults the full owner set before creating
	// anything: after a failover the key's original job may live on any
	// owner — including one the current ring no longer ranks first — and
	// answering from it is what keeps a resubmission from becoming a
	// fleet-level duplicate.
	if req.IdempotencyKey != "" {
		owners := rt.rs.Sequence(key, rt.replication)
		if job, rep, ok := rt.findByKey(r.Context(), owners, req.IdempotencyKey); ok {
			rt.met.ownerDedupHits.Inc()
			tc, _ := api.TraceFrom(r.Context())
			rt.Journal().Emit(events.TypeDedupHit, "keyed resubmission answered from the owner set",
				tc.TraceID, "kind", "owner_set", "replica", rep.ID, "job", job.ID)
			rt.met.ObserveRouted(rep.ID)
			rt.stampJob(job, rep)
			return tier.WriteJSON(w, http.StatusOK, job)
		}
	}
	// Unkeyed submissions never fail over on unavailable: the backend may
	// have admitted the job before the connection died, and a retry
	// elsewhere would run it twice. An idempotency key removes that
	// hazard — the backend deduplicates by key, so an unavailable answer
	// is safe to retry on the next ring candidate (and the client SDK's
	// own retry, landing back on the same primary after a restart,
	// observes the original job). Overloaded/draining refusals (nothing
	// admitted) always move on; once the prober ejects a dead primary,
	// new submissions hash straight to its successor.
	var job *api.Job
	rep, err := rt.route(r.Context(), key, req.IdempotencyKey != "",
		func(ctx context.Context, rep *Replica) (err error) {
			job, err = rep.C.SubmitJob(ctx, &req)
			return err
		})
	if err != nil {
		return tier.WriteError(w, err)
	}
	if req.IdempotencyKey != "" {
		rt.replicate(r.Context(), key, &req, rep)
	}
	rt.stampJob(job, rep)
	return tier.WriteJSON(w, http.StatusAccepted, job)
}

func (rt *Router) handleListJobs(w http.ResponseWriter, r *http.Request) error {
	lists := gather(r.Context(), rt.rs, func(ctx context.Context, rep *Replica) ([]api.Job, error) {
		return rep.C.Jobs(ctx)
	})
	if len(lists) == 0 {
		return tier.WriteError(w, errNoAnswer("GET /v2/jobs"))
	}
	var all []api.Job
	for _, l := range lists {
		for _, j := range l.val {
			rt.stampJob(&j, l.rep)
			all = append(all, j)
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if !all[a].CreatedAt.Equal(all[b].CreatedAt) {
			return all[a].CreatedAt.Before(all[b].CreatedAt)
		}
		return all[a].ID < all[b].ID
	})
	// Replicated copies of one keyed submission are one logical job: keep
	// the oldest copy per key so the fleet listing counts work, not fan-out.
	seenKey := map[string]bool{}
	kept := all[:0]
	for _, j := range all {
		if k := j.IdempotencyKey; k != "" {
			if seenKey[k] {
				continue
			}
			seenKey[k] = true
		}
		kept = append(kept, j)
	}
	return tier.WriteJSON(w, http.StatusOK, kept)
}

// forwardSticky forwards one sticky job call to the replica the job ID
// names and stamps the answer (nil stamp: the payload carries no job ID).
// There is no general failover — the job state lives only there — but
// when the replica is unreachable and the job was keyed-and-replicated,
// the call is retried once against a copy a by-key walk of the other
// live members finds.
func forwardSticky[T any](rt *Router, w http.ResponseWriter, r *http.Request,
	call func(*client.Client, context.Context, string) (*T, error), stamp func(*T, *Replica)) error {
	ctx := r.Context()
	id := r.PathValue("id")
	raw, rep, err := rt.jobReplica(id)
	if err != nil {
		return tier.WriteError(w, err)
	}
	out, err := call(rep.C, ctx, raw)
	switch {
	case err == nil:
		rt.rs.NoteOK(rep)
	case api.AsError(err).Code == api.CodeUnavailable:
		rt.rs.NoteFailure(rep, err)
		if key := rt.owners.Key(id); key != "" {
			others := slices.DeleteFunc(rt.rs.Live(), func(o *Replica) bool { return o == rep })
			if copyJob, copyRep, ok := rt.findByKey(ctx, others, key); ok {
				if copyOut, copyErr := call(copyRep.C, ctx, copyJob.ID); copyErr == nil {
					out, rep, err = copyOut, copyRep, nil
				}
			}
		}
	}
	if err != nil {
		return tier.WriteError(w, err)
	}
	rt.met.ObserveRouted(rep.ID)
	if stamp != nil {
		stamp(out, rep)
	}
	return tier.WriteJSON(w, http.StatusOK, out)
}

func (rt *Router) handleGetJob(w http.ResponseWriter, r *http.Request) error {
	return forwardSticky(rt, w, r, (*client.Client).Job, rt.stampJob)
}

func (rt *Router) handleCancelJob(w http.ResponseWriter, r *http.Request) error {
	return forwardSticky(rt, w, r, (*client.Client).CancelJob, rt.stampJob)
}

func (rt *Router) handleJobResult(w http.ResponseWriter, r *http.Request) error {
	return forwardSticky[api.JobResult](rt, w, r, (*client.Client).JobResult, nil)
}

// handleGetJobByKey mirrors the replica-side by-key lookup at fleet scope:
// scan the live members for the key's job (ring-independent — the key may
// have been owned by a membership that no longer exists).
func (rt *Router) handleGetJobByKey(w http.ResponseWriter, r *http.Request) error {
	key, err := url.PathUnescape(r.PathValue("key"))
	if err != nil {
		return tier.WriteError(w, api.Errorf(api.CodeInvalidArgument, "bad idempotency key encoding: %v", err))
	}
	job, rep, ok := rt.findByKey(r.Context(), rt.rs.Live(), key)
	if !ok {
		return tier.WriteError(w, api.Errorf(api.CodeJobNotFound, "shard: no job under idempotency key %q", key))
	}
	rt.met.ObserveRouted(rep.ID)
	rt.stampJob(job, rep)
	return tier.WriteJSON(w, http.StatusOK, job)
}
