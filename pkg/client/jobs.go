package client

import (
	"context"
	"net/http"
	"net/url"
	"time"

	"repro/pkg/api"
)

// SubmitJob submits any job payload (POST /v2/jobs) and returns the
// pending snapshot. A request carrying an IdempotencyKey is safely
// retryable, so the SDK widens its retry policy for it: transport-level
// unavailable answers (connection refused/reset, a dead connection after
// the server may have acted) retry on the same backoff schedule as
// overloaded ones, and the server deduplicates by key — the caller
// observes exactly one job however many attempts it took. Unkeyed
// submissions keep the at-most-once policy: only overloaded (which
// provably did not admit) is retried.
func (c *Client) SubmitJob(ctx context.Context, req *api.SubmitJobRequest) (*api.Job, error) {
	var out api.Job
	err := c.doRetry(ctx, http.MethodPost, c.versioned("/jobs"), req, &out,
		req.IdempotencyKey != "")
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// SubmitSubsampleJob submits an asynchronous subsample run.
func (c *Client) SubmitSubsampleJob(ctx context.Context, req *api.SubsampleRequest) (*api.Job, error) {
	return c.SubmitJob(ctx, &api.SubmitJobRequest{Type: api.JobSubsample, Subsample: req})
}

// SubmitTrainJob submits an asynchronous subsample→train run.
func (c *Client) SubmitTrainJob(ctx context.Context, spec *api.TrainJobSpec) (*api.Job, error) {
	return c.SubmitJob(ctx, &api.SubmitJobRequest{Type: api.JobTrain, Train: spec})
}

// Job polls one job's status (GET /v2/jobs/{id}).
func (c *Client) Job(ctx context.Context, id string) (*api.Job, error) {
	return call[api.Job](ctx, c, http.MethodGet, c.versioned("/jobs/"+id), nil)
}

// JobByKey looks up the job holding an idempotency key
// (GET /v2/keys/{key}). An unclaimed key answers a typed
// job_not_found. The shard router uses this to consult every member of a
// key's owner set before admitting a resubmission; callers can use it to
// re-find a submission whose job ID they lost.
func (c *Client) JobByKey(ctx context.Context, key string) (*api.Job, error) {
	return call[api.Job](ctx, c, http.MethodGet, c.versioned("/keys/"+url.PathEscape(key)), nil)
}

// Jobs lists all live jobs (GET /v2/jobs).
func (c *Client) Jobs(ctx context.Context) ([]api.Job, error) {
	out, err := call[[]api.Job](ctx, c, http.MethodGet, c.versioned("/jobs"), nil)
	if err != nil {
		return nil, err
	}
	return *out, nil
}

// JobResult fetches a succeeded job's output (GET /v2/jobs/{id}/result).
// Non-terminal jobs answer api.CodeJobNotReady; canceled ones
// api.CodeJobCanceled.
func (c *Client) JobResult(ctx context.Context, id string) (*api.JobResult, error) {
	return call[api.JobResult](ctx, c, http.MethodGet, c.versioned("/jobs/"+id+"/result"), nil)
}

// CancelJob requests cancellation (DELETE /v2/jobs/{id}) and returns the
// pre-cancel snapshot; poll Job (or WaitJob) to observe the terminal
// canceled state.
func (c *Client) CancelJob(ctx context.Context, id string) (*api.Job, error) {
	return call[api.Job](ctx, c, http.MethodDelete, c.versioned("/jobs/"+id), nil)
}

// WaitJob polls until the job reaches a terminal state or ctx ends,
// returning the terminal snapshot. poll <= 0 defaults to 250ms.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*api.Job, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		job, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if job.State.Terminal() {
			return job, nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return job, api.AsError(ctx.Err())
		}
	}
}
