package shard

import (
	"cmp"
	"context"
	"net/http"
	"net/url"
	"slices"
	"strings"

	"repro/internal/obs/events"
	"repro/internal/tier"
	"repro/pkg/api"
	"repro/pkg/client"
)

// Job ownership: which replicas hold a job, how a client-facing ID names
// them, and how a keyed submission's owner set is consulted and populated.

// A client-facing job ID lists every replica that holds the job, in
// holders' order: raw downstream IDs with the holder as a suffix, joined
// by commas ("job-3@r1,job-5@r2"). An unkeyed job, or any job at K = 1,
// has the one address of the replica that accepted it ("job-3@r1"). Raw
// IDs are only unique per replica (each counts from job-1), so the
// addresses are a job's only name — the router keeps nothing per job, and
// an ID survives a router restart with no shared store.
const (
	jobIDSep   = "@"
	jobAddrSep = ","
)

// jobAddr is one copy of a job: its raw ID on the replica holding it.
type jobAddr struct {
	raw string
	rep *Replica
}

// jobID renders addresses (at least one) as a client-facing job ID.
func jobID(addrs []jobAddr) string {
	id := addrs[0].raw + jobIDSep + addrs[0].rep.ID
	for _, a := range addrs[1:] {
		id += jobAddrSep + a.raw + jobIDSep + a.rep.ID
	}
	return id
}

// jobAddrs resolves a client-facing job ID to its addresses. Each must be
// a non-empty raw ID and the ID of a replica the set knows, each replica
// at most once (which also bounds a cancel's fan-out); any other ID names
// no job.
func (rt *Router) jobAddrs(id string) ([]jobAddr, error) {
	addrs := make([]jobAddr, 0, rt.replication) // a keyed job's copies, usually
	for rest, more := id, true; more; {
		var addr string
		addr, rest, more = strings.Cut(rest, jobAddrSep)
		i := strings.LastIndex(addr, jobIDSep)
		rep, ok := rt.rs.Get(addr[i+1:])
		if i <= 0 || !ok || slices.ContainsFunc(addrs, func(a jobAddr) bool { return a.rep == rep }) {
			return nil, api.Errorf(api.CodeJobNotFound, "shard: no job %q", id)
		}
		addrs = append(addrs, jobAddr{addr[:i], rep})
	}
	return addrs, nil
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

// holders names a job from its copies' answers (failed ones hold none;
// copies is reordered) for submit, resubmit, key lookup and listing
// alike: the oldest copy's snapshot and replica, under the ID listing
// every copy oldest first, ties by address; nil when no copy answered.
// Age is each replica's own clock: the admitting primary leads while the
// clocks agree to within the submit-to-copy gap, and skew beyond it
// changes which copy reads try first, never whether the views agree.
func holders(copies []answer[*api.Job]) (*api.Job, *Replica) {
	held := slices.DeleteFunc(copies, func(c answer[*api.Job]) bool { return c.err != nil })
	if len(held) == 0 {
		return nil, nil
	}
	slices.SortFunc(held, func(a, b answer[*api.Job]) int {
		return cmp.Or(byAge(a.val, b.val), strings.Compare(a.rep.ID, b.rep.ID))
	})
	addrs := make([]jobAddr, len(held))
	for i, c := range held {
		addrs[i] = jobAddr{c.val.ID, c.rep}
	}
	held[0].val.ID = jobID(addrs)
	return held[0].val, held[0].rep
}

// byAge orders snapshots oldest first, ties by ID.
func byAge(a, b *api.Job) int {
	return cmp.Or(a.CreatedAt.Compare(b.CreatedAt), strings.Compare(a.ID, b.ID))
}

// findByKey asks every candidate at once for the job holding idemKey and
// names it from the holders that answered (job_not_found is a miss),
// with a typed unavailable one of them answered, if any did: on a miss,
// the holder may be the one not reached.
func (rt *Router) findByKey(ctx context.Context, cands []*Replica, idemKey string) (*api.Job, *Replica, error) {
	answers := fanOut(ctx, rt, cands, nil, func(ctx context.Context, i int) (*api.Job, error) {
		return cands[i].C.JobByKey(ctx, idemKey)
	})
	var unreached error
	for _, a := range answers {
		if a.err != nil && api.AsError(a.err).Code == api.CodeUnavailable {
			unreached = a.err
		}
	}
	job, rep := holders(answers)
	return job, rep, unreached
}

// replicate copies a keyed submission onto the remaining members of its
// owner set, concurrently and best-effort: runners are deterministic and
// results content-addressed, so a copy is just pre-positioned redundancy —
// a fan-out failure loses nothing (the admitted primary copy exists) and
// only costs the key its failover cover. Once each copy has been admitted
// or failed, it names the job from every copy admitted, the primary's
// included (a primary the route failed over to outside the set too).
func (rt *Router) replicate(ctx context.Context, routeKey string, req *api.SubmitJobRequest, admitted answer[*api.Job]) (*api.Job, *Replica) {
	owners := rt.rs.Sequence(routeKey, rt.replication)
	if !slices.Contains(owners, admitted.rep) {
		owners = append(owners, admitted.rep)
	}
	copies := fanOut(ctx, rt, owners, admitted.rep, func(ctx context.Context, i int) (*api.Job, error) {
		return owners[i].C.SubmitJob(ctx, req)
	})
	for i, cp := range copies {
		switch {
		case cp.rep == admitted.rep:
			copies[i] = admitted
		case cp.err != nil:
			rt.met.ownerReplFailures.Inc()
		default:
			rt.met.ownerReplications.With(cp.rep.ID).Inc()
		}
	}
	return holders(copies)
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
		if job, rep, _ := rt.findByKey(r.Context(), owners, req.IdempotencyKey); job != nil {
			rt.met.ownerDedupHits.Inc()
			tc, _ := api.TraceFrom(r.Context())
			rt.Journal().Emit(events.TypeDedupHit, "keyed resubmission answered from the owner set",
				tc.TraceID, "kind", "owner_set", "replica", rep.ID, "job", job.ID)
			rt.met.ObserveRouted(rep.ID)
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
	if req.IdempotencyKey != "" && rt.replication > 1 {
		job, _ = rt.replicate(r.Context(), key, &req, answer[*api.Job]{rep: rep, val: job})
	} else {
		job, _ = holders([]answer[*api.Job]{{rep: rep, val: job}})
	}
	return tier.WriteJSON(w, http.StatusAccepted, job)
}

func (rt *Router) handleListJobs(w http.ResponseWriter, r *http.Request) error {
	lists := gather(r.Context(), rt, nil, func(ctx context.Context, rep *Replica) ([]api.Job, error) {
		return rep.C.Jobs(ctx)
	})
	if len(lists) == 0 {
		return tier.WriteError(w, errNoAnswer("GET /v2/jobs"))
	}
	// Copies of one keyed submission are one logical job, listed under the
	// ID its submission returned; an unkeyed job is its one copy.
	kept, keyed := []*api.Job{}, map[string][]answer[*api.Job]{}
	for _, l := range lists {
		for i := range l.val {
			cp := answer[*api.Job]{rep: l.rep, val: &l.val[i]}
			if k := cp.val.IdempotencyKey; k != "" {
				keyed[k] = append(keyed[k], cp)
				continue
			}
			job, _ := holders([]answer[*api.Job]{cp})
			kept = append(kept, job)
		}
	}
	for _, copies := range keyed {
		job, _ := holders(copies)
		kept = append(kept, job)
	}
	slices.SortFunc(kept, byAge)
	return tier.WriteJSON(w, http.StatusOK, kept)
}

// forwardSticky forwards one sticky job call to the addresses the job ID
// lists, in order, moving to the next only on unavailable.
func forwardSticky[T any](rt *Router, w http.ResponseWriter, r *http.Request,
	call func(*client.Client, context.Context, string) (*T, error), stamp func(*T, string)) error {
	id := r.PathValue("id")
	addrs, err := rt.jobAddrs(id)
	if err != nil {
		return tier.WriteError(w, err)
	}
	return answerSticky(rt, w, id, addrs, func(i int) (*T, error) {
		out, err := call(addrs[i].rep.C, r.Context(), addrs[i].raw)
		rt.observe(addrs[i].rep, err)
		return out, err
	}, stamp)
}

// answerSticky answers from the first address whose (already accounted)
// attempt is not unavailable, stamped with the ID of that address and
// those after it (nil stamp: the payload carries no job ID). An accepted
// ID renders back to itself, so that ID is a suffix of id.
func answerSticky[T any](rt *Router, w http.ResponseWriter, id string, addrs []jobAddr,
	attempt func(int) (*T, error), stamp func(*T, string)) error {
	var err error
	for i, a := range addrs {
		var out *T
		if out, err = attempt(i); err != nil {
			if api.AsError(err).Code == api.CodeUnavailable {
				_, id, _ = strings.Cut(id, jobAddrSep)
				continue
			}
			return tier.WriteError(w, err)
		}
		rt.met.ObserveRouted(a.rep.ID)
		if stamp != nil {
			stamp(out, id)
		}
		return tier.WriteJSON(w, http.StatusOK, out)
	}
	return tier.WriteError(w, err)
}

func setJobID(job *api.Job, id string) { job.ID = id }

func (rt *Router) handleGetJob(w http.ResponseWriter, r *http.Request) error {
	return forwardSticky(rt, w, r, (*client.Client).Job, setJobID)
}

func (rt *Router) handleJobResult(w http.ResponseWriter, r *http.Request) error {
	return forwardSticky[api.JobResult](rt, w, r, (*client.Client).JobResult, nil)
}

// handleCancelJob cancels every copy the job ID lists, concurrently (a
// copy left running would answer a failed-over read as pending or
// succeeded), and answers as a read would.
func (rt *Router) handleCancelJob(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	addrs, err := rt.jobAddrs(id)
	if err != nil {
		return tier.WriteError(w, err)
	}
	reps := make([]*Replica, len(addrs))
	for i, a := range addrs {
		reps[i] = a.rep
	}
	outs := fanOut(r.Context(), rt, reps, nil, func(ctx context.Context, i int) (*api.Job, error) {
		return addrs[i].rep.C.CancelJob(ctx, addrs[i].raw)
	})
	return answerSticky(rt, w, id, addrs, func(i int) (*api.Job, error) { return outs[i].val, outs[i].err }, setJobID)
}

// handleGetJobByKey mirrors the replica-side by-key lookup at fleet scope,
// over every live member (every member when none is up: the key may have
// been owned by a membership that no longer exists), and answers with the
// ID listing each holder. While a member that may hold the key is
// unreachable, a miss is typed unavailable, not job_not_found.
func (rt *Router) handleGetJobByKey(w http.ResponseWriter, r *http.Request) error {
	key, err := url.PathUnescape(r.PathValue("key"))
	if err != nil {
		return tier.WriteError(w, api.Errorf(api.CodeInvalidArgument, "bad idempotency key encoding: %v", err))
	}
	job, rep, err := rt.findByKey(r.Context(), rt.rs.liveOrAll(), key)
	switch {
	case job != nil:
		rt.met.ObserveRouted(rep.ID)
		return tier.WriteJSON(w, http.StatusOK, job)
	case err != nil:
		return tier.WriteError(w, api.Errorf(api.CodeUnavailable,
			"shard: no reachable replica holds idempotency key %q: %v", key, err))
	}
	return tier.WriteError(w, api.Errorf(api.CodeJobNotFound, "shard: no job under idempotency key %q", key))
}
