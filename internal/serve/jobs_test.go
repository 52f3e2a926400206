package serve

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/pkg/api"
)

// submit admits an unkeyed subsample job outside any trace.
func submit(jm *JobManager, run JobRunner) (api.Job, error) {
	job, _, err := jm.Submit(context.Background(), api.JobSubsample, run, SubmitOptions{})
	return job, err
}

func waitTerminal(t *testing.T, jm *JobManager, id string) api.Job {
	t.Helper()
	done, ok := jm.Done(id)
	if !ok {
		t.Fatalf("job %s unknown", id)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s never reached a terminal state", id)
	}
	j, err := jm.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestJobContextReleased: a finished job's context is cancelled, so the
// manager's root context does not keep every job's context alive for the
// life of the server.
func TestJobContextReleased(t *testing.T) {
	jm := NewJobManager(1, 4, time.Minute)
	defer jm.Close()
	var jobCtx context.Context
	job, err := submit(jm, func(ctx context.Context, _ func(string, int, int)) (*api.JobResult, error) {
		jobCtx = ctx
		return &api.JobResult{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, jm, job.ID); final.State != api.JobSucceeded {
		t.Fatalf("final = %+v", final)
	}
	if jobCtx.Err() == nil {
		t.Fatal("a succeeded job's context is still live")
	}
}

func TestJobLifecycleAndResult(t *testing.T) {
	jm := NewJobManager(1, 4, time.Minute)
	defer jm.Close()

	ran := make(chan struct{})
	job, err := submit(jm, func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
		progress("work", 1, 2)
		close(ran)
		return &api.JobResult{Subsample: &api.SubsampleResponse{Cubes: 7}}, nil
	})
	if err != nil || job.State != api.JobPending {
		t.Fatalf("submit = %+v, %v", job, err)
	}
	<-ran
	final := waitTerminal(t, jm, job.ID)
	if final.State != api.JobSucceeded || final.Progress.Stage != "work" {
		t.Fatalf("final = %+v", final)
	}
	res, err := jm.Result(job.ID)
	if err != nil || res.Subsample.Cubes != 7 {
		t.Fatalf("result = %+v, %v", res, err)
	}
}

func TestJobResultNotReady(t *testing.T) {
	jm := NewJobManager(1, 4, time.Minute)
	defer jm.Close()

	release := make(chan struct{})
	job, _ := submit(jm, func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
		<-release
		return &api.JobResult{}, nil
	})
	_, err := jm.Result(job.ID)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeJobNotReady {
		t.Fatalf("result while running = %v, want job_not_ready", err)
	}
	close(release)
	waitTerminal(t, jm, job.ID)
}

// TestJobCancelWhilePending: with one worker slot occupied, a second job
// canceled before it ever starts finishes canceled without running.
func TestJobCancelWhilePending(t *testing.T) {
	jm := NewJobManager(1, 4, time.Minute)
	defer jm.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	blocker, _ := submit(jm, func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
		close(started)
		<-release
		return &api.JobResult{}, nil
	})
	<-started
	ran := false
	pending, _ := submit(jm, func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
		ran = true
		return &api.JobResult{}, nil
	})
	if _, err := jm.Cancel(pending.ID); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, jm, pending.ID)
	if final.State != api.JobCanceled || ran {
		t.Fatalf("pending job finished %s (ran=%v), want canceled without running", final.State, ran)
	}
	close(release)
	waitTerminal(t, jm, blocker.ID)
}

// TestJobTTLPurge: terminal jobs expire after the retention TTL (under an
// injected clock) and then answer job_not_found.
func TestJobTTLPurge(t *testing.T) {
	jm := NewJobManager(1, 4, time.Minute)
	defer jm.Close()
	now := time.Unix(1000, 0)
	jm.now = func() time.Time { return now }

	job, _ := submit(jm, func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
		return &api.JobResult{}, nil
	})
	waitTerminal(t, jm, job.ID)

	now = now.Add(30 * time.Second) // within TTL: still visible
	if _, err := jm.Get(job.ID); err != nil {
		t.Fatalf("job purged before TTL: %v", err)
	}
	now = now.Add(2 * time.Minute) // past TTL: purged lazily on access
	_, err := jm.Get(job.ID)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeJobNotFound {
		t.Fatalf("expired job = %v, want job_not_found", err)
	}
	if n := len(jm.List()); n != 0 {
		t.Fatalf("list still shows %d jobs after TTL", n)
	}
}

// TestJobAdmissionIgnoresTerminal: retained finished jobs do not consume
// admission slots — only active jobs count against maxJobs.
func TestJobAdmissionIgnoresTerminal(t *testing.T) {
	jm := NewJobManager(1, 2, time.Minute)
	defer jm.Close()
	noop := func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
		return &api.JobResult{}, nil
	}
	for i := 0; i < 5; i++ { // well past maxJobs=2, sequentially
		job, err := submit(jm, noop)
		if err != nil {
			t.Fatalf("submit %d rejected: %v", i, err)
		}
		waitTerminal(t, jm, job.ID)
	}
	if got := len(jm.List()); got != 5 {
		t.Fatalf("retained %d terminal jobs, want 5", got)
	}
}

// TestJobNaNResultKeepsWALOpen: a result encoding/json refuses (a training
// run that diverged to a NaN loss) still finishes its job succeeded, and
// stays out of the terminal record instead of latching the log failed —
// the next submission is still accepted.
func TestJobNaNResultKeepsWALOpen(t *testing.T) {
	st, _, err := durable.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	jm := NewJobManager(1, 4, time.Minute)
	defer jm.Close()
	var walErrs []error
	jm.SetDurable(st, func(err error) { walErrs = append(walErrs, err) })

	job, err := submit(jm, func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
		return &api.JobResult{Train: &api.TrainJobResult{FinalLoss: math.NaN()}}, nil
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if final := waitTerminal(t, jm, job.ID); final.State != api.JobSucceeded {
		t.Fatalf("NaN-result job finished %s (%v), want succeeded", final.State, final.Error)
	}
	if res, err := jm.Result(job.ID); err != nil || !math.IsNaN(res.Train.FinalLoss) {
		t.Fatalf("result = %+v, %v; want the NaN loss in memory", res, err)
	}
	next, err := submit(jm, func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
		return &api.JobResult{}, nil
	})
	if err != nil {
		t.Fatalf("submission after a NaN result refused: %v", err)
	}
	waitTerminal(t, jm, next.ID)
	if len(walErrs) != 0 {
		t.Fatalf("WAL append errors: %v", walErrs)
	}
}

// TestJobManagerCloseCancelsRunning: Close cancels in-flight jobs, which
// land in canceled with the shutting_down code.
func TestJobManagerCloseCancelsRunning(t *testing.T) {
	jm := NewJobManager(1, 4, time.Minute)

	started := make(chan struct{})
	job, _ := submit(jm, func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	jm.Close()
	j, err := jm.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != api.JobCanceled || j.Error == nil || j.Error.Code != api.CodeShuttingDown {
		t.Fatalf("after Close: %+v", j)
	}
}
